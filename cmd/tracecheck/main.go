// Command tracecheck validates a JSON-lines observability trace (written by
// the -trace flag of the characterization tools) against event schema v1:
// monotone timestamps, paired span begin/end events and resolvable parents.
// It also checks the run's own accounting: the run_end counters must show
// one LU factorization per Newton iteration (newton_iters ==
// lu_factorizations + lu_refactorizations) and one contour point per point
// event (contour_points == the run's point events; a missing counter counts
// as 0). On success it prints the reconstructed span tree with durations;
// any violation exits nonzero. CI runs it over reduced-grid
// characterization, delay-surface and Monte-Carlo traces to keep the event
// stream well-formed and its bookkeeping consistent.
//
// With -dump the input is checked as a flight-recorder post-mortem dump
// instead: a dump_meta header, a bounded ring window (where span begins may
// have been evicted, so strict pairing is relaxed) and an optional trailing
// error event carrying the corrector iterate ring. The header and error
// summary are printed. A dump is a window, not a whole run, so its counters
// are not checked.
//
// Usage:
//
//	tracecheck run.jsonl
//	tracecheck -dump flight-job-1.jsonl
//	latchchar -cell tspc -trace /dev/stdout ... | tracecheck -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"latchchar/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	dump := fs.Bool("dump", false, "validate a flight-recorder post-mortem dump instead of a full trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracecheck [-dump] <trace.jsonl | ->")
	}
	var r io.Reader = os.Stdin
	if fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJSONL(r)
	if err != nil {
		return err
	}
	if *dump {
		return checkDump(os.Stdout, events)
	}
	if err := obs.Validate(events); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	if err := checkAccounts(events); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	tree, err := obs.SpanTree(events)
	if err != nil {
		return err
	}
	spans, points := 0, 0
	for _, e := range events {
		switch e.Kind {
		case obs.KindSpanBegin:
			spans++
		case obs.KindPoint:
			points++
		}
	}
	fmt.Printf("valid: %d events, %d spans, %d contour points\n", len(events), spans, points)
	for _, root := range tree {
		printNode(root, 0)
	}
	return nil
}

// checkAccounts requires every run_end event's counters to account for the
// run's work: each Newton iteration factorizes exactly once and nothing
// else factorizes, failed and canceled transients included; and the run
// counts exactly the contour points it emitted as point events.
func checkAccounts(events []obs.Event) error {
	points := int64(0)
	for i, e := range events {
		switch e.Kind {
		case obs.KindRunBegin:
			points = 0
		case obs.KindPoint:
			points++
		case obs.KindRunEnd:
			iters := e.Counters[obs.CtrNewtonIters]
			lu := e.Counters[obs.CtrLUFactor] + e.Counters[obs.CtrLURefactor]
			if iters != lu {
				return fmt.Errorf("event %d (run_end): %s = %d, but %s + %s = %d",
					i, obs.CtrNewtonIters, iters, obs.CtrLUFactor, obs.CtrLURefactor, lu)
			}
			if n := e.Counters[obs.CtrPoints]; n != points {
				return fmt.Errorf("event %d (run_end): %s = %d, but the run emitted %d point events",
					i, obs.CtrPoints, n, points)
			}
		}
	}
	return nil
}

// checkDump validates a post-mortem dump and summarizes its header, window
// and error event.
func checkDump(w io.Writer, events []obs.Event) error {
	if err := obs.ValidateDump(events); err != nil {
		return fmt.Errorf("invalid dump: %w", err)
	}
	head := events[0]
	fmt.Fprintf(w, "valid dump: %d events", len(events))
	if head.Corr != "" {
		fmt.Fprintf(w, ", corr %s", head.Corr)
	}
	if head.Job != "" {
		fmt.Fprintf(w, ", job %s", head.Job)
	}
	if head.Reason != "" {
		fmt.Fprintf(w, ", reason %s", head.Reason)
	}
	if head.Dropped > 0 {
		fmt.Fprintf(w, ", %d events evicted from the ring", head.Dropped)
	}
	fmt.Fprintln(w)
	if head.Msg != "" {
		fmt.Fprintf(w, "error: %s\n", head.Msg)
	}
	for i := len(events) - 1; i > 0; i-- {
		if events[i].Kind != obs.KindError {
			continue
		}
		ev := events[i]
		if ev.Op != "" {
			fmt.Fprintf(w, "failed op: %s\n", ev.Op)
		}
		if len(ev.StepLens) > 0 {
			fmt.Fprintf(w, "predictor step lengths tried (ps):")
			for _, a := range ev.StepLens {
				fmt.Fprintf(w, " %.3g", a*1e12)
			}
			fmt.Fprintln(w)
		}
		if len(ev.Iterates) > 0 {
			fmt.Fprintf(w, "last corrector iterates:\n")
			fmt.Fprintf(w, "  %-4s %-12s %-12s %-12s\n", "it", "tau_s_ps", "tau_h_ps", "|h|")
			for k, p := range ev.Iterates {
				h := p.H
				if h < 0 {
					h = -h
				}
				fmt.Fprintf(w, "  %-4d %-12.4f %-12.4f %-12.3e\n", k+1, p.TauS*1e12, p.TauH*1e12, h)
			}
		}
		break
	}
	return nil
}

func printNode(n *obs.SpanNode, depth int) {
	fmt.Printf("%s%s  %v\n", strings.Repeat("  ", depth), n.Name,
		time.Duration(n.DurNs).Round(10*time.Microsecond))
	for _, c := range n.Children {
		printNode(c, depth+1)
	}
}
