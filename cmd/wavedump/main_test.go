package main

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"latchchar/internal/cli"
	"latchchar/internal/stf"
)

func TestRunDumpsAllNodes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "waves.csv")
	if err := run([]string{"-cell", "tspc", "-setup", "400", "-hold", "300", "-post", "1", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 50 {
		t.Fatalf("too few rows: %d", len(lines))
	}
	header := strings.Split(lines[0], ",")
	// t_ns + 9 TSPC nodes (vdd, d, clk, x, y, q, n1, n2, n3).
	if len(header) != 10 {
		t.Fatalf("header columns: %v", header)
	}
	if header[0] != "t_ns" {
		t.Errorf("first column %q", header[0])
	}
	found := false
	for _, h := range header {
		if h == "q" {
			found = true
		}
	}
	if !found {
		t.Error("output node missing from header")
	}
}

// The dumped output column is the transient behind h: bit for bit the
// waveform Evaluator.OutputUntil returns at the same skews and end time.
func TestOutputColumnMatchesOutputUntil(t *testing.T) {
	setupPS, holdPS, postNS := 400.0, 300.0, 1.0
	out := filepath.Join(t.TempDir(), "waves.csv")
	args := []string{"-cell", "tspc", "-o", out,
		"-setup", strconv.FormatFloat(setupPS, 'g', -1, 64),
		"-hold", strconv.FormatFloat(holdPS, 'g', -1, 64),
		"-post", strconv.FormatFloat(postNS, 'g', -1, 64)}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, name := range rows[0] {
		if name == "q" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no q column in %v", rows[0])
	}

	cell, err := cli.LoadCell("tspc", "")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cell.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := stf.NewEvaluator(inst, stf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	times, want, err := ev.OutputUntil(setupPS*1e-12, holdPS*1e-12, inst.Edge50+postNS*1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)-1 != len(want) {
		t.Fatalf("%d rows, OutputUntil has %d points", len(rows)-1, len(want))
	}
	for k, row := range rows[1:] {
		if tns := strconv.FormatFloat(times[k]*1e9, 'f', 6, 64); row[0] != tns {
			t.Fatalf("row %d: t_ns %s, want %s", k, row[0], tns)
		}
		got, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want[k]) {
			t.Fatalf("row %d (t=%s ns): q = %v, OutputUntil = %v", k, row[0], got, want[k])
		}
	}
}

func TestRunRejectsBadCell(t *testing.T) {
	if err := run([]string{"-cell", "nope"}); err == nil {
		t.Error("unknown cell accepted")
	}
}
