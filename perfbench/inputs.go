package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"latchchar"
)

// input is one characterization input: a cell plus the key that says whether
// the engine has seen it before (same key ⇒ calibration LRU hit).
type input struct {
	key  string
	cell *latchchar.Cell
	// mk rebuilds the cell at another process (nil for decks).
	mk func(latchchar.Process) *latchchar.Cell
	// hot marks an input that repeats within the run.
	hot bool
}

// builtins are the process-parameterized cells, in a fixed order.
var builtins = []string{"tspc", "c2mos", "tgate"}

func makerFor(name string) func(latchchar.Process) *latchchar.Cell {
	mk, err := latchchar.CellMakerByName(name, latchchar.DefaultTiming())
	if err != nil {
		panic(err) // builtins lists only cells that have makers
	}
	return mk
}

// corners draws n process corners around nominal from the seed with the
// library's own Monte-Carlo sampler (i.i.d., default sigmas), so the inputs
// are the kind of corners the library characterizes.
func corners(seed int64, n int) ([]latchchar.Process, error) {
	return latchchar.MCDraws(latchchar.DefaultProcess(), latchchar.MCOptions{Samples: n, Seed: seed})
}

// contourDecks are the example netlists the contour workload repeats, named
// so that a deck added to examples/netlists does not change the workload.
var contourDecks = []string{"c2mos.cir", "dynamic_latch.cir", "tspc.cir"}

// loadDecks parses the named example netlists under root/examples/netlists.
func loadDecks(root string, names []string) ([]input, error) {
	var decks []input
	for _, name := range names {
		p := filepath.Join(root, "examples", "netlists", name)
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		deck, err := latchchar.ParseNetlistString(string(src))
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		decks = append(decks, input{key: "deck/" + name, cell: deck.Cell(name), hot: true})
	}
	return decks, nil
}

// opSeq generates a workload's op inputs: op i is a pure function of
// (seed, i). Ops come in rounds; a round visits every cell once cold — at a
// fresh seeded corner the engine has never calibrated — interleaved with
// every hot input once, in a seed-shuffled order. Hot inputs repeat every
// round, so their calibrations come from the engine's LRU. Windows end on a
// round boundary, so every run measures the same mix of cells whatever the
// seed.
type opSeq struct {
	seed    int64
	cells   []string
	corners []latchchar.Process
	hotSet  []input
}

// maxOps bounds the ops any run can draw; a window never gets near it.
const maxOps = 4096

func newOpSeq(seed int64, cells []string, hotSet []input) (*opSeq, error) {
	if len(cells) != len(hotSet) {
		return nil, fmt.Errorf("a round needs as many hot inputs (%d) as cells (%d)", len(hotSet), len(cells))
	}
	cs, err := corners(seed, maxOps/2)
	if err != nil {
		return nil, err
	}
	return &opSeq{seed: seed, cells: cells, corners: cs, hotSet: hotSet}, nil
}

// roundLen is the number of ops in a round.
func (s *opSeq) roundLen() int { return 2 * len(s.cells) }

// at returns op i's input.
func (s *opSeq) at(i int) input {
	r, j := i/s.roundLen(), i%s.roundLen()
	if j%2 == 1 {
		order := rand.New(rand.NewSource(s.seed*7919 + int64(r))).Perm(len(s.hotSet))
		return s.hotSet[order[j/2]]
	}
	k := r*len(s.cells) + j/2
	name := s.cells[j/2]
	mk := makerFor(name)
	return input{key: fmt.Sprintf("%s/corner%d", name, k), cell: mk(s.corners[k%len(s.corners)]), mk: mk}
}

// windowOpen reports whether op i still belongs to the window opened at
// start: the window closes on the round boundary nearest to d, so it holds
// whole rounds and lasts about d.
func (s *opSeq) windowOpen(i int, start time.Time, d time.Duration) bool {
	rounds := i / s.roundLen()
	if i%s.roundLen() != 0 || rounds == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*rounds) < d
}

// nominalInputs are the built-in cells at the default process.
func nominalInputs(cells []string) []input {
	var out []input
	for _, name := range cells {
		mk := makerFor(name)
		out = append(out, input{key: name + "/nominal", cell: mk(latchchar.DefaultProcess()), mk: mk, hot: true})
	}
	return out
}
