package robustness

import (
	"math"
	"testing"

	"cdsf/internal/pmf"
	"cdsf/internal/sysmodel"
)

func testSystem() *sysmodel.System {
	return &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "T2", Count: 4, Avail: pmf.Point(1)},
	}}
}

func testBatch() sysmodel.Batch {
	app := func(name string, t1, t2 float64) sysmodel.Application {
		return sysmodel.Application{
			Name:          name,
			SerialIters:   100,
			ParallelIters: 900,
			ExecTime: []pmf.PMF{
				pmf.MustNew([]pmf.Pulse{{Value: t1 * 0.9, Prob: 0.5}, {Value: t1 * 1.1, Prob: 0.5}}),
				pmf.Point(t2),
			},
		}
	}
	return sysmodel.Batch{app("a", 1000, 1500), app("b", 2000, 1200)}
}

func TestEvaluateStageIProductRule(t *testing.T) {
	sys, batch := testSystem(), testBatch()
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	res, err := EvaluateStageI(sys, batch, alloc, 1200)
	if err != nil {
		t.Fatal(err)
	}
	want := res.PerApp[0] * res.PerApp[1]
	if math.Abs(res.Phi1-want) > 1e-12 {
		t.Errorf("phi1 = %v, product = %v", res.Phi1, want)
	}
	for i, c := range res.Completion {
		if math.Abs(c.Mean()-res.ExpectedTimes[i]) > 1e-9 {
			t.Errorf("expected time %d mismatch", i)
		}
		if got := c.PrLE(1200); math.Abs(got-res.PerApp[i]) > 1e-12 {
			t.Errorf("per-app probability %d mismatch", i)
		}
	}
}

func TestEvaluateStageIKnownValue(t *testing.T) {
	sys, batch := testSystem(), testBatch()
	// App b on type 2 (deterministic avail 1), 4 procs: time =
	// 0.1*1200 + 0.9*1200/4 = 390 always -> Pr = 1 for deadline 400.
	alloc := sysmodel.Allocation{{Type: 1, Procs: 2}, {Type: 1, Procs: 2}}
	res, err := EvaluateStageI(sys, batch, alloc, 825)
	if err != nil {
		t.Fatal(err)
	}
	// App a on T2 x2: 0.1*1500 + 0.9*1500/2 = 825 -> Pr(<=825) = 1.
	if res.PerApp[0] != 1 {
		t.Errorf("PerApp[0] = %v", res.PerApp[0])
	}
	// App b on T2 x2: 0.1*1200 + 0.9*1200/2 = 660 <= 825 -> 1.
	if res.PerApp[1] != 1 {
		t.Errorf("PerApp[1] = %v", res.PerApp[1])
	}
}

func TestEvaluateStageIRejectsBadAllocation(t *testing.T) {
	sys, batch := testSystem(), testBatch()
	if _, err := EvaluateStageI(sys, batch, sysmodel.Allocation{{Type: 0, Procs: 8}, {Type: 0, Procs: 1}}, 100); err == nil {
		t.Error("oversubscribed allocation accepted")
	}
}

func TestMakespanPMFMatchesPhi1(t *testing.T) {
	sys, batch := testSystem(), testBatch()
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 0, Procs: 2}}
	const deadline = 1500
	res, err := EvaluateStageI(sys, batch, alloc, deadline)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := MakespanPMF(sys, batch, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := mk.PrLE(deadline); math.Abs(got-res.Phi1) > 1e-9 {
		t.Errorf("makespan PrLE = %v, phi1 = %v", got, res.Phi1)
	}
	// Compaction keeps the probability close (within binning error).
	mkC, err := MakespanPMF(sys, batch, alloc, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := mkC.PrLE(deadline); math.Abs(got-res.Phi1) > 0.1 {
		t.Errorf("compacted makespan PrLE = %v far from %v", got, res.Phi1)
	}
}

func TestAvailabilityDecrease(t *testing.T) {
	sys := testSystem()
	pert := sys.WithAvailability([]pmf.PMF{pmf.Point(0.375), pmf.Point(0.5)})
	// Reference weighted = (4*0.75 + 4*1)/8 = 0.875; perturbed =
	// (4*0.375+4*0.5)/8 = 0.4375 -> decrease 0.5.
	if got := AvailabilityDecrease(sys, pert); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("decrease = %v, want 0.5", got)
	}
	if got := AvailabilityDecrease(sys, sys); got != 0 {
		t.Errorf("self decrease = %v", got)
	}
}

func TestStageIIRobustness(t *testing.T) {
	outcomes := []StageIIOutcome{
		{Decrease: 0, AllMeetDeadline: true},
		{Decrease: 0.28, AllMeetDeadline: true},
		{Decrease: 0.31, AllMeetDeadline: true},
		{Decrease: 0.33, AllMeetDeadline: false},
	}
	rho2, ok := StageIIRobustness(outcomes)
	if !ok || math.Abs(rho2-0.31) > 1e-12 {
		t.Errorf("rho2 = %v, %v", rho2, ok)
	}
	_, ok = StageIIRobustness([]StageIIOutcome{{Decrease: 0.1, AllMeetDeadline: false}})
	if ok {
		t.Error("rho2 defined with no qualifying case")
	}
	_, ok = StageIIRobustness(nil)
	if ok {
		t.Error("rho2 defined with no outcomes")
	}
}

func TestTupleString(t *testing.T) {
	tuple := Tuple{Rho1: 0.745, Rho2: 0.3077}
	if got := tuple.String(); got != "(74.5%, 30.77%)" {
		t.Errorf("String = %q", got)
	}
}
