package sysmodel

import (
	"math"
	"testing"
)

func TestAllocationStats(t *testing.T) {
	sys := twoTypeSystem() // 4 + 8 processors
	batch := Batch{testApp(), testApp()}
	al := Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	s, err := al.Stats(sys, batch)
	if err != nil {
		t.Fatal(err)
	}
	if s.UsedByType[0] != 2 || s.UsedByType[1] != 4 {
		t.Errorf("used = %v", s.UsedByType)
	}
	if s.IdleByType[0] != 2 || s.IdleByType[1] != 4 {
		t.Errorf("idle = %v", s.IdleByType)
	}
	if s.TotalUsed != 6 || s.TotalIdle != 6 {
		t.Errorf("totals = %d/%d", s.TotalUsed, s.TotalIdle)
	}
	if math.Abs(s.Utilization-0.5) > 1e-12 {
		t.Errorf("utilization = %v", s.Utilization)
	}
	bad := Allocation{{Type: 0, Procs: 8}, {Type: 1, Procs: 4}}
	if _, err := bad.Stats(sys, batch); err == nil {
		t.Error("infeasible allocation accepted")
	}
}
