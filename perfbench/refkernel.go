package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are CPU time rescaled to a fixed machine speed.
//
// The benchmark runs on a few vCPUs of a shared host whose speed changes
// from one stretch of seconds to the next: the same op's CPU time moved by
// up to 1.7× between runs minutes apart, and the host gives no hardware
// counters to count instructions with. A fixed reference computation slows
// down with it. Each op is therefore preceded by one call of refKernel, and
// the op's CPU time is multiplied by refKernelMS / (that call's CPU time):
// the time the op would take on a machine where the kernel takes
// refKernelMS. run.sh pins the benchmark and its daemons to one CPU, so the
// kernel runs on the core the ops run on.
//
// The kernel mixes the two kinds of work the program does — floating-point
// Newton steps with a dense LU solve, and branchy integer work (sorting,
// hashing, number formatting) — because they slow down by different amounts:
// on the slow stretches the floating-point part slowed by 1.9×, the integer
// part by 1.6×, and the ops by 1.4–1.7×. The kernel is the benchmark's own
// code and allocates nothing, so a change to the program cannot change it.

// refKernelMS is the kernel's CPU time on the reference machine: about its
// median on a 2-vCPU Intel Xeon guest on the host's fast stretches, so that
// there reference time reads as CPU time.
const refKernelMS = 6.2

// refMeter holds a run's most recent kernel sample.
type refMeter struct {
	last float64 // CPU time of the latest kernel call, ms
	sink int
}

// sample times one kernel call on a locked thread by that thread's CPU time,
// so neither a wait for the core nor a garbage-collection worker on another
// thread counts. The call sits outside every timed op.
func (r *refMeter) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	r.sink += refKernel()
	r.last = ms(threadCPU() - t0)
}

// rescale converts CPU time d to reference time by the latest sample.
func (r *refMeter) rescale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * refKernelMS / r.last)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a valid clock id and buffer cannot fail
	}
	return time.Duration(ts.Nano())
}

// refState is the kernel's working memory, allocated once.
var refState = struct {
	src, xs []float64
	counts  map[uint32]int
	buf     []byte
}{
	src:    make([]float64, 8192),
	xs:     make([]float64, 8192),
	counts: make(map[uint32]int, 8192),
	buf:    make([]byte, 0, 1<<16),
}

func init() {
	rng := rand.New(rand.NewSource(1))
	for i := range refState.src {
		refState.src[i] = rng.Float64()
	}
}

// refKernel is the fixed reference computation: refLUSteps Newton-style
// steps on a dense 24-node system, then refIntRounds rounds of sorting 8192
// floats, counting 8192 hashed keys and formatting 2048 numbers. It returns
// a value derived from the results so the work cannot be optimized away.
func refKernel() int {
	const (
		refLUSteps   = 700
		refIntRounds = 2
	)
	s := int(1e6 * luSteps(refLUSteps))
	st := &refState
	for r := 0; r < refIntRounds; r++ {
		copy(st.xs, st.src)
		slices.Sort(st.xs)
		clear(st.counts)
		x := uint32(12345)
		for i := 0; i < 8192; i++ {
			x = x*1664525 + 1013904223
			st.counts[x%100000] += i
		}
		st.buf = st.buf[:0]
		for i := 0; i < 2048; i++ {
			st.buf = strconv.AppendFloat(st.buf, st.xs[i], 'g', -1, 64)
			st.buf = strconv.AppendInt(st.buf, int64(i), 10)
		}
		s += len(st.buf) + len(st.counts)
	}
	return s
}

// luSteps runs n Newton-style steps on a dense 24-node system, each
// stamping exponential device currents into the matrix and solving it by LU
// with partial pivoting.
func luSteps(n int) float64 {
	const size = 24
	var (
		a    [size][size]float64
		b, v [size]float64
	)
	for i := range v {
		v[i] = 0.01 * float64(i%7)
	}
	for it := 0; it < n; it++ {
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				g := 1e-3 / (1 + float64((i-j)*(i-j)))
				if i == j {
					g += 1
				}
				a[i][j] = g
			}
			// A diode-like device between node i and its neighbour.
			k := (i + 1) % size
			e := math.Exp((v[i] - v[k]) / 0.025)
			gd := 1e-6 / 0.025 * e
			a[i][i] += gd
			a[i][k] -= gd
			b[i] = -1e-6*(e-1) + 1e-3*float64(i%3)
		}
		for c := 0; c < size; c++ {
			m := c
			for r := c + 1; r < size; r++ {
				if math.Abs(a[r][c]) > math.Abs(a[m][c]) {
					m = r
				}
			}
			a[c], a[m] = a[m], a[c]
			b[c], b[m] = b[m], b[c]
			for r := c + 1; r < size; r++ {
				f := a[r][c] / a[c][c]
				for k := c; k < size; k++ {
					a[r][k] -= f * a[c][k]
				}
				b[r] -= f * b[c]
			}
		}
		for r := size - 1; r >= 0; r-- {
			s := b[r]
			for k := r + 1; k < size; k++ {
				s -= a[r][k] * b[k]
			}
			b[r] = s / a[r][r]
		}
		for i := range v {
			v[i] = 0.5*v[i] + 0.5*math.Tanh(b[i])*0.05
		}
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
