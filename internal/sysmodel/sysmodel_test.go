package sysmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"cdsf/internal/pmf"
)

func twoTypeSystem() *System {
	return &System{Types: []ProcType{
		{Name: "T1", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.75, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "T2", Count: 8, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})},
	}}
}

func testApp() Application {
	return Application{
		Name:          "app",
		SerialIters:   300,
		ParallelIters: 700,
		ExecTime: []pmf.PMF{
			pmf.Point(1000),
			pmf.Point(2000),
		},
	}
}

func TestWeightedAvailabilityEq1(t *testing.T) {
	sys := twoTypeSystem()
	// (4*0.875 + 8*0.6875) / 12 = 0.75.
	if got := sys.WeightedAvailability(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("weighted availability = %v, want 0.75", got)
	}
	if sys.TotalProcessors() != 12 {
		t.Errorf("total processors = %d", sys.TotalProcessors())
	}
}

func TestSystemValidate(t *testing.T) {
	sys := twoTypeSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &System{}
	if err := bad.Validate(); err == nil {
		t.Error("empty system validated")
	}
	bad = &System{Types: []ProcType{{Name: "x", Count: 0, Avail: pmf.Point(1)}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-count type validated")
	}
	bad = &System{Types: []ProcType{{Name: "x", Count: 1, Avail: pmf.Point(1.5)}}}
	if err := bad.Validate(); err == nil {
		t.Error("availability > 1 validated")
	}
	bad = &System{Types: []ProcType{{Name: "x", Count: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("missing availability validated")
	}
}

func TestWithAvailability(t *testing.T) {
	sys := twoTypeSystem()
	newAvail := []pmf.PMF{pmf.Point(0.5), pmf.Point(0.25)}
	pert := sys.WithAvailability(newAvail)
	if got := pert.WeightedAvailability(); math.Abs(got-(4*0.5+8*0.25)/12) > 1e-12 {
		t.Errorf("perturbed weighted availability = %v", got)
	}
	// The original must be untouched.
	if got := sys.WeightedAvailability(); math.Abs(got-0.75) > 1e-12 {
		t.Error("WithAvailability mutated the original system")
	}
}

func TestApplicationFractions(t *testing.T) {
	a := testApp()
	if a.TotalIters() != 1000 {
		t.Errorf("total iters = %d", a.TotalIters())
	}
	if a.SerialFraction() != 0.3 || a.ParallelFraction() != 0.7 {
		t.Errorf("fractions = %v / %v", a.SerialFraction(), a.ParallelFraction())
	}
}

func TestApplicationValidate(t *testing.T) {
	a := testApp()
	if err := a.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := testApp()
	bad.ParallelIters = 0
	if err := bad.Validate(2); err == nil {
		t.Error("zero parallel iterations validated")
	}
	bad = testApp()
	bad.ExecTime = bad.ExecTime[:1]
	if err := bad.Validate(2); err == nil {
		t.Error("missing exec-time PMF validated")
	}
	bad = testApp()
	bad.ExecTime[0] = pmf.Point(-5)
	if err := bad.Validate(2); err == nil {
		t.Error("negative execution time validated")
	}
}

func TestParallelTimePMFEq2(t *testing.T) {
	a := testApp()
	// T = 1000, s = 0.3, p = 0.7, n = 4: 300 + 175 = 475.
	p := a.ParallelTimePMF(0, 4)
	if p.Len() != 1 || math.Abs(p.Mean()-475) > 1e-9 {
		t.Errorf("parallel time = %v, want 475", p.Mean())
	}
	// n = 1 must reproduce the single-processor time.
	p1 := a.ParallelTimePMF(0, 1)
	if math.Abs(p1.Mean()-1000) > 1e-9 {
		t.Errorf("n=1 parallel time = %v, want 1000", p1.Mean())
	}
	// Probabilities are preserved pulse by pulse.
	multi := Application{
		Name: "m", SerialIters: 300, ParallelIters: 700,
		ExecTime: []pmf.PMF{pmf.MustNew([]pmf.Pulse{
			{Value: 900, Prob: 0.25}, {Value: 1100, Prob: 0.75}}), pmf.Point(1)},
	}
	mp := multi.ParallelTimePMF(0, 2)
	if mp.At(0).Prob != 0.25 || mp.At(1).Prob != 0.75 {
		t.Error("Eq.2 changed pulse probabilities")
	}
}

func TestCompletionPMF(t *testing.T) {
	a := testApp()
	avail := pmf.MustNew([]pmf.Pulse{{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})
	c := a.CompletionPMF(0, 4, avail)
	// Parallel time 475 at availability 0.5 -> 950; at 1 -> 475.
	if c.Min() != 475 || c.Max() != 950 {
		t.Errorf("completion support = [%v, %v]", c.Min(), c.Max())
	}
	if math.Abs(c.Mean()-712.5) > 1e-9 {
		t.Errorf("completion mean = %v", c.Mean())
	}
}

func TestAllocationValidate(t *testing.T) {
	sys := twoTypeSystem()
	batch := Batch{testApp(), testApp(), testApp()}
	good := Allocation{{Type: 0, Procs: 2}, {Type: 0, Procs: 2}, {Type: 1, Procs: 8}}
	if err := good.Validate(sys, batch); err != nil {
		t.Fatal(err)
	}
	over := Allocation{{Type: 0, Procs: 4}, {Type: 0, Procs: 2}, {Type: 1, Procs: 8}}
	if err := over.Validate(sys, batch); err == nil {
		t.Error("oversubscription validated")
	}
	short := Allocation{{Type: 0, Procs: 2}}
	if err := short.Validate(sys, batch); err == nil {
		t.Error("incomplete allocation validated")
	}
	badType := Allocation{{Type: 5, Procs: 1}, {Type: 0, Procs: 1}, {Type: 0, Procs: 1}}
	if err := badType.Validate(sys, batch); err == nil {
		t.Error("unknown type validated")
	}
	zero := Allocation{{Type: 0, Procs: 0}, {Type: 0, Procs: 1}, {Type: 0, Procs: 1}}
	if err := zero.Validate(sys, batch); err == nil {
		t.Error("zero-processor assignment validated")
	}
}

func TestAllocationHelpers(t *testing.T) {
	al := Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	used := al.Used(2)
	if used[0] != 2 || used[1] != 4 {
		t.Errorf("used = %v", used)
	}
	cl := al.Clone()
	cl[0].Procs = 1
	if al[0].Procs != 2 {
		t.Error("Clone aliases the original")
	}
	if !al.Equal(Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}) {
		t.Error("Equal false negative")
	}
	if al.Equal(cl) {
		t.Error("Equal false positive")
	}
	if got := al.String(); got != "app0->T0x2 app1->T1x4" {
		t.Errorf("String = %q", got)
	}
}

func TestPowerOfTwoCounts(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{0, nil}, {1, []int{1}}, {7, []int{1, 2, 4}}, {8, []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		got := PowerOfTwoCounts(c.max)
		if len(got) != len(c.want) {
			t.Errorf("PowerOfTwoCounts(%d) = %v", c.max, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PowerOfTwoCounts(%d) = %v", c.max, got)
			}
		}
	}
}

func TestEnumerateAllocationsFeasibleAndComplete(t *testing.T) {
	sys := twoTypeSystem()
	batch := Batch{testApp(), testApp()}
	n := 0
	EnumerateAllocations(sys, batch, func(al Allocation) bool {
		n++
		if err := al.Validate(sys, batch); err != nil {
			t.Fatalf("enumerated infeasible allocation %v: %v", al, err)
		}
		return true
	})
	// Per app: type 0 counts {1,2,4} and type 1 counts {1,2,4,8} = 7
	// options unconstrained; minus combinations exceeding capacity.
	if got := CountAllocations(sys, batch, n); got != n {
		t.Errorf("visit count %d != CountAllocations %d", n, got)
	}
	if n == 0 {
		t.Fatal("no allocations enumerated")
	}
	// Manual count for one app: 3 + 4 = 7 options.
	single := 0
	EnumerateAllocations(sys, Batch{testApp()}, func(Allocation) bool {
		single++
		return true
	})
	if single != 7 {
		t.Errorf("single-app options = %d, want 7", single)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	sys := twoTypeSystem()
	batch := Batch{testApp(), testApp()}
	n := 0
	EnumerateAllocations(sys, batch, func(Allocation) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

// TestCountAllocationsLimit checks that the count stops just past its
// limit on the scale study's 10-application, 48-processor size (647,993,773
// feasible allocations, tens of seconds to walk in full) and stays exact
// when the space fits under the limit.
func TestCountAllocationsLimit(t *testing.T) {
	sys := &System{Types: []ProcType{
		{Name: "T1", Count: 16, Avail: pmf.Point(1)},
		{Name: "T2", Count: 32, Avail: pmf.Point(1)},
	}}
	batch := make(Batch, 10)
	for i := range batch {
		batch[i] = testApp()
	}
	const limit = 2_000_000
	start := time.Now()
	if n := CountAllocations(sys, batch, limit); n != limit+1 {
		t.Errorf("10x48 count with limit %d = %d, want %d", limit, n, limit+1)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("bounded count took %v", el)
	}

	small := twoTypeSystem()
	pair := Batch{testApp(), testApp()}
	full := 0
	EnumerateAllocations(small, pair, func(Allocation) bool {
		full++
		return true
	})
	for _, limit := range []int{full, full + 1, 1 << 30} {
		if n := CountAllocations(small, pair, limit); n != full {
			t.Errorf("count with limit %d = %d, want the exact %d", limit, n, full)
		}
	}
}

// TestQuickEq2Monotone property-checks that the parallel time decreases
// (weakly) with more processors and stays above the serial floor.
func TestQuickEq2Monotone(t *testing.T) {
	a := testApp()
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 1
		t1 := a.ParallelTimePMF(0, n).Mean()
		t2 := a.ParallelTimePMF(0, n+1).Mean()
		serialFloor := a.SerialFraction() * a.ExecTime[0].Mean()
		return t2 <= t1+1e-9 && t2 >= serialFloor-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
