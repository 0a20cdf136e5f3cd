package tracing

import (
	"encoding/json"
	"io"
	"sync/atomic"
)

// Progress tracks how far a long run has advanced: scenarios, cases,
// and Stage-II replications completed versus planned. Producers (core,
// experiments, sim) bump the counters atomically; the -debug-addr
// server's /progress endpoint snapshots them, so a long Monte-Carlo
// batch can be inspected while it is still executing. A nil *Progress
// is a no-op on every method — the disabled path instrumented code
// rides on, exactly like a nil metrics.Registry.
type Progress struct {
	scenariosPlanned, scenariosDone atomic.Int64
	casesPlanned, casesDone         atomic.Int64
	repsPlanned, repsDone           atomic.Int64
}

// NewProgress returns an empty progress board.
func NewProgress() *Progress { return &Progress{} }

// PlanScenarios adds n planned scenarios. No-op on a nil receiver.
func (p *Progress) PlanScenarios(n int) {
	if p != nil {
		p.scenariosPlanned.Add(int64(n))
	}
}

// ScenarioDone marks one scenario complete. No-op on a nil receiver.
func (p *Progress) ScenarioDone() {
	if p != nil {
		p.scenariosDone.Add(1)
	}
}

// PlanCases adds n planned availability cases (or scale-study cells).
// No-op on a nil receiver.
func (p *Progress) PlanCases(n int) {
	if p != nil {
		p.casesPlanned.Add(int64(n))
	}
}

// CaseDone marks one case complete. No-op on a nil receiver.
func (p *Progress) CaseDone() {
	if p != nil {
		p.casesDone.Add(1)
	}
}

// PlanReps adds n planned Stage-II replications. No-op on a nil
// receiver.
func (p *Progress) PlanReps(n int) {
	if p != nil {
		p.repsPlanned.Add(int64(n))
	}
}

// RepDone marks one replication complete. No-op on a nil receiver.
func (p *Progress) RepDone() {
	if p != nil {
		p.repsDone.Add(1)
	}
}

// Counts is one dimension's done/planned pair.
type Counts struct {
	Done    int64 `json:"done"`
	Planned int64 `json:"planned"`
}

// ProgressSnapshot is a point-in-time copy of a Progress.
type ProgressSnapshot struct {
	Scenarios    Counts `json:"scenarios"`
	Cases        Counts `json:"cases"`
	Replications Counts `json:"replications"`
}

// Snapshot copies the current counters; a nil receiver yields zeros.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		Scenarios:    Counts{Done: p.scenariosDone.Load(), Planned: p.scenariosPlanned.Load()},
		Cases:        Counts{Done: p.casesDone.Load(), Planned: p.casesPlanned.Load()},
		Replications: Counts{Done: p.repsDone.Load(), Planned: p.repsPlanned.Load()},
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (s ProgressSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
