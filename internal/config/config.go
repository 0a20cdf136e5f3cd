// Package config defines the on-disk JSON representation of a CDSF
// problem instance — the heterogeneous system, the application batch,
// and the deadline — so the command-line tools can operate on
// user-supplied problems rather than only the embedded paper example.
//
// Execution times may be given either as explicit PMFs or as normal
// distributions (mean + optional sigma, defaulting to the paper's
// sigma = mean/10) that are discretized on load. Availabilities are
// explicit PMFs with values in percent or fractions (values > 1 are
// interpreted as percent, matching the paper's tables).
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"cdsf/internal/pmf"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// Instance is the root document.
type Instance struct {
	// Name labels the instance in reports.
	Name string `json:"name,omitempty"`
	// Deadline is the common deadline (time units); required.
	Deadline float64 `json:"deadline"`
	// Pulses is the discretization granularity for normal execution
	// times (default 250).
	Pulses int `json:"pulses,omitempty"`
	// Types lists the processor types.
	Types []ProcTypeSpec `json:"types"`
	// Applications lists the batch.
	Applications []ApplicationSpec `json:"applications"`
	// Edges optionally lists precedence constraints between
	// applications, by batch index (the v1.1 "dag" schema): each edge
	// means applications[from] must finish before applications[to]
	// starts. Omitted or empty is the paper's independent batch — the
	// field is omitted from canonical JSON, so pre-existing instances
	// marshal byte-identically.
	Edges []EdgeSpec `json:"edges,omitempty"`
	// Cases optionally lists runtime availability cases (the paper's
	// Table I cases); each provides one availability PMF per type, in
	// type order. Omitted cases default to the reference availability
	// plus uniform degradations chosen by the tool.
	Cases []CaseSpec `json:"cases,omitempty"`
}

// CaseSpec is one runtime availability case.
type CaseSpec struct {
	Name string `json:"name,omitempty"`
	// Availability[j] is the availability PMF of processor type j.
	Availability [][]PulseSpec `json:"availability"`
}

// EdgeSpec is one precedence edge: the application at batch index From
// must finish before the application at index To may start.
type EdgeSpec struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// NamedAvailability is a decoded runtime availability case.
type NamedAvailability struct {
	Name  string
	Avail []pmf.PMF
}

// ProcTypeSpec describes one processor type.
type ProcTypeSpec struct {
	Name  string `json:"name,omitempty"`
	Count int    `json:"count"`
	// Availability is the availability PMF; values may be percent
	// (0-100] or fractions (0-1].
	Availability []PulseSpec `json:"availability"`
}

// PulseSpec is one (value, probability) pulse; probability may be
// percent or a fraction (the whole PMF is normalized on load).
type PulseSpec struct {
	Value       float64 `json:"value"`
	Probability float64 `json:"probability"`
}

// ApplicationSpec describes one application of the batch.
type ApplicationSpec struct {
	Name          string `json:"name,omitempty"`
	SerialIters   int    `json:"serialIterations"`
	ParallelIters int    `json:"parallelIterations"`
	// ExecTimes has one entry per processor type, in type order.
	ExecTimes []ExecTimeSpec `json:"execTimes"`
}

// ExecTimeSpec is the single-processor execution time on one type:
// either a normal distribution (Mean, optional Sigma) or an explicit
// PMF (Pulses), exactly one of which must be present.
type ExecTimeSpec struct {
	Mean   float64     `json:"mean,omitempty"`
	Sigma  float64     `json:"sigma,omitempty"`
	Pulses []PulseSpec `json:"pulses,omitempty"`
}

// LoadInstance reads and decodes an instance document from a JSON file
// without building the model objects, so callers can also pick up the
// optional fields (edges, cases) via BuildEdges / BuildCases.
func LoadInstance(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Parse decodes an Instance document from r without building the model
// objects. Unknown fields are rejected, so typos in hand-written
// instances (and service requests) fail loudly instead of being
// silently dropped.
func Parse(r io.Reader) (*Instance, error) {
	var inst Instance
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&inst); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return &inst, nil
}

// Marshal renders an Instance as canonical JSON: two-space indentation,
// keys in struct-declaration order (stable across runs and Go
// versions), empty optional fields omitted, and a trailing newline.
// Marshal(Parse(Marshal(inst))) is byte-identical to Marshal(inst), so
// the scheduling service can echo the canonical instance back in job
// results and clients can diff instances textually.
//
// Non-finite floats are rejected up front with the offending field
// path (encoding/json would only say "unsupported value"); the
// canonical bytes key the content-addressed solve cache, so a NaN or
// ±Inf must fail loudly before it can reach the hasher.
func Marshal(inst *Instance) ([]byte, error) {
	if err := validateFinite(inst); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(inst, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return append(data, '\n'), nil
}

// validateFinite walks every float in the document and reports the
// first NaN/±Inf by its JSON field path, e.g.
// "config: applications[2].execTimes[0].mean: non-finite value NaN".
func validateFinite(inst *Instance) error {
	finite := func(v float64, path string, args ...any) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("config: %s: non-finite value %v", fmt.Sprintf(path, args...), v)
		}
		return nil
	}
	pulses := func(specs []PulseSpec, path string, args ...any) error {
		p := fmt.Sprintf(path, args...)
		for k, s := range specs {
			if err := finite(s.Value, "%s[%d].value", p, k); err != nil {
				return err
			}
			if err := finite(s.Probability, "%s[%d].probability", p, k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := finite(inst.Deadline, "deadline"); err != nil {
		return err
	}
	for j, ts := range inst.Types {
		if err := pulses(ts.Availability, "types[%d].availability", j); err != nil {
			return err
		}
	}
	for i, as := range inst.Applications {
		for j, es := range as.ExecTimes {
			if err := finite(es.Mean, "applications[%d].execTimes[%d].mean", i, j); err != nil {
				return err
			}
			if err := finite(es.Sigma, "applications[%d].execTimes[%d].sigma", i, j); err != nil {
				return err
			}
			if err := pulses(es.Pulses, "applications[%d].execTimes[%d].pulses", i, j); err != nil {
				return err
			}
		}
	}
	for c, cs := range inst.Cases {
		for j, specs := range cs.Availability {
			if err := pulses(specs, "cases[%d].availability[%d]", c, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// Build converts a parsed Instance into validated model objects.
func Build(inst *Instance) (*sysmodel.System, sysmodel.Batch, float64, error) {
	if inst.Deadline <= 0 {
		return nil, nil, 0, fmt.Errorf("config: deadline %v not positive", inst.Deadline)
	}
	pulses := inst.Pulses
	if pulses <= 0 {
		pulses = 250
	}
	if len(inst.Types) == 0 {
		return nil, nil, 0, fmt.Errorf("config: no processor types")
	}
	if len(inst.Applications) == 0 {
		return nil, nil, 0, fmt.Errorf("config: no applications")
	}

	sys := &sysmodel.System{Types: make([]sysmodel.ProcType, len(inst.Types))}
	for j, ts := range inst.Types {
		name := ts.Name
		if name == "" {
			name = fmt.Sprintf("Type %d", j+1)
		}
		avail, err := buildAvailPMF(ts.Availability)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("config: type %q: %w", name, err)
		}
		sys.Types[j] = sysmodel.ProcType{Name: name, Count: ts.Count, Avail: avail}
	}

	batch := make(sysmodel.Batch, len(inst.Applications))
	for i, as := range inst.Applications {
		name := as.Name
		if name == "" {
			name = fmt.Sprintf("App %d", i+1)
		}
		if len(as.ExecTimes) != len(inst.Types) {
			return nil, nil, 0, fmt.Errorf("config: application %q has %d execTimes for %d types",
				name, len(as.ExecTimes), len(inst.Types))
		}
		exec := make([]pmf.PMF, len(as.ExecTimes))
		for j, es := range as.ExecTimes {
			p, err := buildExecPMF(es, pulses)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("config: application %q type %d: %w", name, j, err)
			}
			exec[j] = p
		}
		batch[i] = sysmodel.Application{
			Name:          name,
			SerialIters:   as.SerialIters,
			ParallelIters: as.ParallelIters,
			ExecTime:      exec,
		}
	}

	if err := sys.Validate(); err != nil {
		return nil, nil, 0, fmt.Errorf("config: %w", err)
	}
	if err := batch.Validate(len(sys.Types)); err != nil {
		return nil, nil, 0, fmt.Errorf("config: %w", err)
	}
	return sys, batch, inst.Deadline, nil
}

// buildAvailPMF converts pulse specs into a fractional availability PMF.
// Values above 1 are treated as percentages.
func buildAvailPMF(specs []PulseSpec) (pmf.PMF, error) {
	if len(specs) == 0 {
		return pmf.PMF{}, fmt.Errorf("no availability pulses")
	}
	ps := make([]pmf.Pulse, len(specs))
	for i, s := range specs {
		v := s.Value
		if v > 1 {
			v /= 100
		}
		ps[i] = pmf.Pulse{Value: v, Prob: s.Probability}
	}
	return pmf.New(ps)
}

// buildExecPMF converts one execution-time spec.
func buildExecPMF(es ExecTimeSpec, pulses int) (pmf.PMF, error) {
	hasNormal := es.Mean != 0 || es.Sigma != 0
	hasPulses := len(es.Pulses) > 0
	switch {
	case hasNormal && hasPulses:
		return pmf.PMF{}, fmt.Errorf("both mean and pulses given")
	case hasPulses:
		ps := make([]pmf.Pulse, len(es.Pulses))
		for i, s := range es.Pulses {
			ps[i] = pmf.Pulse{Value: s.Value, Prob: s.Probability}
		}
		return pmf.New(ps)
	case hasNormal:
		if es.Mean <= 0 {
			return pmf.PMF{}, fmt.Errorf("mean %v not positive", es.Mean)
		}
		sigma := es.Sigma
		if sigma <= 0 {
			sigma = es.Mean / 10
		}
		return pmf.Discretize(stats.NewNormal(es.Mean, sigma), pulses), nil
	default:
		return pmf.PMF{}, fmt.Errorf("no execution time given")
	}
}

// BuildEdges validates and converts the instance's precedence edges.
// Validation failures carry canonical field paths (e.g.
// "config: edges[3].from: unknown application 9 (batch has 4)") via
// sysmodel.EdgeError, which API layers can unwrap for structured
// error documents.
func BuildEdges(inst *Instance) ([]sysmodel.Edge, error) {
	if len(inst.Edges) == 0 {
		return nil, nil
	}
	edges := make([]sysmodel.Edge, len(inst.Edges))
	for i, e := range inst.Edges {
		edges[i] = sysmodel.Edge{From: e.From, To: e.To}
	}
	if err := sysmodel.ValidateEdges(edges, len(inst.Applications)); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return edges, nil
}

// BuildCases decodes the instance's runtime availability cases,
// validating arity against the type count.
func BuildCases(inst *Instance) ([]NamedAvailability, error) {
	out := make([]NamedAvailability, 0, len(inst.Cases))
	for ci, cs := range inst.Cases {
		name := cs.Name
		if name == "" {
			name = fmt.Sprintf("Case %d", ci+1)
		}
		if len(cs.Availability) != len(inst.Types) {
			return nil, fmt.Errorf("config: case %q has %d availability PMFs for %d types",
				name, len(cs.Availability), len(inst.Types))
		}
		avail := make([]pmf.PMF, len(cs.Availability))
		for j, specs := range cs.Availability {
			p, err := buildAvailPMF(specs)
			if err != nil {
				return nil, fmt.Errorf("config: case %q type %d: %w", name, j, err)
			}
			avail[j] = p
		}
		out = append(out, NamedAvailability{Name: name, Avail: avail})
	}
	return out, nil
}
