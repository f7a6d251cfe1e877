package latchchar

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const reproHelperEnv = "LATCHCHAR_REPRO_HELPER"

// TestContoursBitReproducibleAcrossProcesses characterizes tspc and c2mos on
// the block fast path in two fresh processes and requires bitwise-equal
// contour points. Within one process two engines could agree by accident —
// a Go map, for one, iterates in a per-process random order — so only
// separate processes show that every loop on the path walks a fixed order.
func TestContoursBitReproducibleAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary for two full characterizations")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]string
	for i := range runs {
		cmd := exec.Command(exe, "-test.run=^TestHelperReproContours$")
		cmd.Env = append(os.Environ(), reproHelperEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("helper process %d: %v\n%s%s", i, err, out, stderr.Bytes())
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "repro ") {
				runs[i] = append(runs[i], line)
			}
		}
		if len(runs[i]) == 0 {
			t.Fatalf("helper process %d printed no contour points:\n%s", i, out)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("the processes traced %d and %d points", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("point %d differs between processes:\n  %s\n  %s", i, runs[0][i], runs[1][i])
		}
	}
}

// TestHelperReproContours is the child process of
// TestContoursBitReproducibleAcrossProcesses: it prints the bits of every
// contour point of tspc and c2mos (block fast path, 40 points both ways).
func TestHelperReproContours(t *testing.T) {
	if os.Getenv(reproHelperEnv) == "" {
		t.Skip("helper process of TestContoursBitReproducibleAcrossProcesses")
	}
	for _, name := range []string{"tspc", "c2mos"} {
		cell, err := CellByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Characterize(cell, Options{
			Points:         40,
			BothDirections: true,
			Block:          8,
			Eval:           DefaultFastPath(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range res.Contour.Points {
			fmt.Printf("repro %s %d %016x %016x\n", name, i,
				math.Float64bits(p.TauS), math.Float64bits(p.TauH))
		}
	}
}
