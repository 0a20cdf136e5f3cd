package tracing

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilProgressNoOp(t *testing.T) {
	var p *Progress
	p.PlanScenarios(3)
	p.ScenarioDone()
	p.PlanCases(5)
	p.CaseDone()
	p.PlanReps(7)
	p.RepDone()
	if s := p.Snapshot(); s != (ProgressSnapshot{}) {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestProgressCounts(t *testing.T) {
	p := NewProgress()
	p.PlanScenarios(2)
	p.PlanCases(6)
	p.PlanReps(30)
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.RepDone() }()
	}
	wg.Wait()
	p.ScenarioDone()
	p.CaseDone()
	p.CaseDone()
	s := p.Snapshot()
	if s.Scenarios != (Counts{Done: 1, Planned: 2}) ||
		s.Cases != (Counts{Done: 2, Planned: 6}) ||
		s.Replications != (Counts{Done: 30, Planned: 30}) {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestProgressJSON(t *testing.T) {
	p := NewProgress()
	p.PlanCases(4)
	p.CaseDone()
	var buf bytes.Buffer
	if err := p.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("progress JSON invalid: %v\n%s", err, buf.Bytes())
	}
	if got["cases"]["done"] != 1 || got["cases"]["planned"] != 4 {
		t.Errorf("cases = %v", got["cases"])
	}
}
