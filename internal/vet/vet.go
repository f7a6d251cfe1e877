// Package vet is a static-analysis driver for characterization setups, in
// the style of go/analysis: a registry of small, independent analyzers runs
// over a finalized circuit plus the characterization query parameters and
// returns structured diagnostics with stable check IDs.
//
// The point is throughput: every broken netlist, unreachable crossing level
// or ill-posed clock/data window that slips into a run costs a full
// transient + sensitivity trace before it is discovered. The analyzers here
// encode the preconditions of the Euler-Newton flow (paper Sections III–IV)
// so they can be enforced before any simulation is spent — by the charvet
// CLI, by the -vet pre-run gate in latchchar and surfgen, and by CI over the
// shipped example netlists.
//
// Adding an analyzer: construct an Analyzer with a stable kebab-case Name,
// a one-line Doc, and a Run function emitting Diagnostics, then register it
// (DefaultRegistry registers all built-ins). Analyzers must be pure
// functions of the Target: no simulation, no mutation, deterministic output
// order (the driver sorts diagnostics, but emit deterministically anyway so
// per-analyzer tests are stable).
package vet

import (
	"fmt"
	"sort"
	"strings"

	"latchchar/internal/circuit"
	"latchchar/internal/registers"
)

// Severity grades a diagnostic. Errors abort gated runs; warnings and infos
// are advisory.
type Severity int

const (
	// Info marks an observation that needs no action.
	Info Severity = iota
	// Warning marks a likely mistake that does not invalidate the run.
	Warning
	// Error marks a precondition violation: the characterization would
	// waste simulations or produce meaningless results.
	Error
)

// String returns the lowercase severity name used in renderers.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalText implements encoding.TextMarshaler for JSON output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	case "info":
		*s = Info
	default:
		return fmt.Errorf("vet: unknown severity %q", b)
	}
	return nil
}

// Diagnostic is one finding. Check and Severity are always set; the locus
// fields (Node, Device, Param) are set when the finding anchors to a
// specific circuit node, device instance or configuration parameter.
type Diagnostic struct {
	// Check is the stable ID of the analyzer that produced the finding.
	Check string `json:"check"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Node names the affected circuit node, when applicable.
	Node string `json:"node,omitempty"`
	// Device names the affected device instance, when applicable.
	Device string `json:"device,omitempty"`
	// Param names the affected configuration parameter, when applicable.
	Param string `json:"param,omitempty"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// Details carries machine-readable key/value context (numeric limits,
	// measured values) for tooling.
	Details map[string]string `json:"details,omitempty"`
	// File and Line anchor the finding in source, for producers whose
	// subject is code rather than a circuit (the latchlint suite renders
	// through this report type). Zero values mean "no source position".
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

// String formats the diagnostic in the one-line text form.
func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.File != "" {
		fmt.Fprintf(&sb, "%s:%d: ", d.File, d.Line)
	}
	fmt.Fprintf(&sb, "%s: %s", d.Severity, d.Check)
	switch {
	case d.Node != "":
		fmt.Fprintf(&sb, ": node %q", d.Node)
	case d.Device != "":
		fmt.Fprintf(&sb, ": device %q", d.Device)
	case d.Param != "":
		fmt.Fprintf(&sb, ": param %q", d.Param)
	}
	fmt.Fprintf(&sb, ": %s", d.Message)
	return sb.String()
}

// Target is what analyzers examine: a finalized circuit, optionally the
// built register instance carrying the characterization stimulus, and the
// query parameters.
type Target struct {
	// Name labels the target in reports (cell name or netlist path).
	Name string
	// Circuit is the finalized circuit. Required.
	Circuit *circuit.Circuit
	// Inst is the built register instance. Analyzers that need the stimulus
	// (clock, data pulse, output node) skip their checks when nil.
	Inst *registers.Instance
	// Spec holds the characterization query parameters.
	Spec Spec

	// top caches the topology computation across analyzers.
	top *circuit.Topology
}

// NewTarget bundles a built instance and spec into a Target.
func NewTarget(name string, inst *registers.Instance, spec Spec) *Target {
	return &Target{Name: name, Circuit: inst.Circuit, Inst: inst, Spec: spec.Normalized()}
}

// Topology returns the target circuit's connectivity summary, computed once.
func (t *Target) Topology() *circuit.Topology {
	if t.top == nil {
		t.top = t.Circuit.Topology()
	}
	return t.top
}

// Analyzer is one independent check. Run must be a pure function of the
// target: no simulation, no mutation.
type Analyzer struct {
	// Name is the stable check ID (kebab-case); it tags every diagnostic
	// the analyzer emits and addresses it in -enable/-disable.
	Name string
	// Doc is a one-line description shown by charvet -list.
	Doc string
	// HelpURI points at the check's catalog entry (DESIGN.md anchor); it is
	// emitted as the SARIF rule helpUri so CI annotations link back to the
	// rationale.
	HelpURI string
	// Run inspects the target and returns findings.
	Run func(*Target) []Diagnostic
}

// RuleMeta is the renderer-facing description of one rule: what SARIF (and
// other structured outputs) need to describe a check independently of which
// driver produced it. Both the vet registry and the latchlint suite render
// through this type.
type RuleMeta struct {
	// ID is the stable rule/check identifier.
	ID string
	// Doc is the one-line description (the SARIF shortDescription).
	Doc string
	// HelpURI links the rule's catalog entry.
	HelpURI string
}

// RuleMetas returns the metadata for the named checks, in the given order.
// Unknown names yield a bare ID so renderers never drop a rule.
func (r *Registry) RuleMetas(names []string) []RuleMeta {
	metas := make([]RuleMeta, 0, len(names))
	for _, name := range names {
		meta := RuleMeta{ID: name}
		if a := r.Lookup(name); a != nil {
			meta.Doc = a.Doc
			meta.HelpURI = a.HelpURI
		}
		metas = append(metas, meta)
	}
	return metas
}

// Registry holds a set of analyzers.
type Registry struct {
	analyzers []*Analyzer
	byName    map[string]*Analyzer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Analyzer)}
}

// Register adds an analyzer; duplicate names panic (programming error).
func (r *Registry) Register(a *Analyzer) {
	if a.Name == "" || a.Run == nil {
		panic("vet: analyzer needs a name and a Run function")
	}
	if _, dup := r.byName[a.Name]; dup {
		panic(fmt.Sprintf("vet: duplicate analyzer %q", a.Name))
	}
	r.analyzers = append(r.analyzers, a)
	r.byName[a.Name] = a
}

// Analyzers returns the registered analyzers in registration order.
func (r *Registry) Analyzers() []*Analyzer { return r.analyzers }

// Lookup returns the analyzer with the given name, or nil.
func (r *Registry) Lookup(name string) *Analyzer { return r.byName[name] }

// DefaultRegistry returns a registry with every built-in analyzer: the three
// topology checks ported from circuit.Lint plus the stimulus-, value- and
// configuration-level checks.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(analyzerFloatingNode)
	r.Register(analyzerNoGroundPath)
	r.Register(analyzerSingleTerminal)
	r.Register(analyzerClockWindow)
	r.Register(analyzerEventOrder)
	r.Register(analyzerOutputNode)
	r.Register(analyzerValueSanity)
	r.Register(analyzerMPNRConfig)
	r.Register(analyzerSimWindow)
	r.Register(analyzerSupplyRail)
	return r
}

// Options select which checks run.
type Options struct {
	// Enable, when non-empty, restricts the run to exactly these checks.
	Enable []string
	// Disable removes checks from the (possibly restricted) set.
	Disable []string
}

// Report is the outcome of one driver run over one target.
type Report struct {
	// Tool names the producer in rendered output (default "charvet"). Not
	// serialized directly: renderers place it in their own envelopes.
	Tool string `json:"-"`
	// Target labels the vetted setup.
	Target string `json:"target"`
	// Checks lists the analyzer names that ran.
	Checks []string `json:"checks"`
	// Diagnostics are the findings, sorted by severity (errors first), then
	// check ID, then locus.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// HasErrors reports whether any Error-severity finding is present.
func (rep *Report) HasErrors() bool { return rep.Count(Error) > 0 }

// Count returns the number of findings at the given severity.
func (rep *Report) Count(s Severity) int {
	n := 0
	for _, d := range rep.Diagnostics {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Vet runs the selected analyzers over the target. Unknown check names in
// the options are reported as an error so typos never silently disable a
// gate.
func (r *Registry) Vet(t *Target, opts Options) (*Report, error) {
	if t == nil || t.Circuit == nil {
		return nil, fmt.Errorf("vet: nil target or circuit")
	}
	if !t.Circuit.Finalized() {
		return nil, fmt.Errorf("vet: circuit not finalized")
	}
	for _, name := range append(append([]string(nil), opts.Enable...), opts.Disable...) {
		if r.Lookup(name) == nil {
			return nil, fmt.Errorf("vet: unknown check %q", name)
		}
	}
	selected := func(name string) bool {
		if len(opts.Enable) > 0 {
			ok := false
			for _, e := range opts.Enable {
				if e == name {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		for _, d := range opts.Disable {
			if d == name {
				return false
			}
		}
		return true
	}
	t.Spec = t.Spec.Normalized()
	rep := &Report{Target: t.Name}
	for _, a := range r.analyzers {
		if !selected(a.Name) {
			continue
		}
		rep.Checks = append(rep.Checks, a.Name)
		for _, d := range a.Run(t) {
			d.Check = a.Name
			rep.Diagnostics = append(rep.Diagnostics, d)
		}
	}
	sort.SliceStable(rep.Diagnostics, func(i, j int) bool {
		a, b := rep.Diagnostics[i], rep.Diagnostics[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity // errors first
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Message < b.Message
	})
	return rep, nil
}

// VetInstance runs the default registry over a built instance.
func VetInstance(name string, inst *registers.Instance, spec Spec, opts Options) (*Report, error) {
	return DefaultRegistry().Vet(NewTarget(name, inst, spec), opts)
}
