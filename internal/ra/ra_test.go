package ra

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cdsf/internal/pmf"
	"cdsf/internal/rng"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// smallProblem builds a compact instance with a known-good structure:
// one short and one long application on a 2-type system.
func smallProblem() *Problem {
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 2, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "T2", Count: 4, Avail: pmf.Point(1)},
	}}
	app := func(t1, t2 float64) sysmodel.Application {
		return sysmodel.Application{
			Name:          "app",
			SerialIters:   100,
			ParallelIters: 900,
			ExecTime: []pmf.PMF{
				pmf.Discretize(stats.NewNormal(t1, t1/10), 50),
				pmf.Discretize(stats.NewNormal(t2, t2/10), 50),
			},
		}
	}
	return &Problem{
		Sys:      sys,
		Batch:    sysmodel.Batch{app(1000, 1400), app(2500, 1800)},
		Deadline: 1200,
	}
}

// randomProblem builds a random feasible instance for property tests.
func randomProblem(seed uint64, apps int) *Problem {
	r := rng.New(seed)
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 2 + r.Intn(4), Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5 + 0.5*r.Float64(), Prob: 0.5},
			{Value: 0.25 + 0.25*r.Float64(), Prob: 0.5}})},
		{Name: "T2", Count: 2 + r.Intn(8), Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.4 + 0.6*r.Float64(), Prob: 1}})},
	}}
	b := make(sysmodel.Batch, apps)
	for i := range b {
		mu1 := 500 + 2500*r.Float64()
		mu2 := 500 + 2500*r.Float64()
		b[i] = sysmodel.Application{
			Name:          fmt.Sprintf("app%d", i),
			SerialIters:   1 + r.Intn(200),
			ParallelIters: 200 + r.Intn(2000),
			ExecTime: []pmf.PMF{
				pmf.Discretize(stats.NewNormal(mu1, mu1/10), 30),
				pmf.Discretize(stats.NewNormal(mu2, mu2/10), 30),
			},
		}
	}
	return &Problem{Sys: sys, Batch: b, Deadline: 800 + 2000*r.Float64()}
}

func TestGetAndNames(t *testing.T) {
	want := []string{"dag-greedy", "exhaustive", "greedy", "heft", "minmin", "naive", "tabu", "twophase"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		h, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		} else if h.Name() != n {
			t.Errorf("ByName(%q) returned %q", n, h.Name())
		}
	}
	if _, err := ByName("EXHAUSTIVE"); err != nil {
		t.Error("lookup not case-insensitive")
	}
	for _, gone := range []string{"bogus", "random", "maxmin", "duplex", "minimal", "portfolio", "anneal", "genetic"} {
		_, err := ByName(gone)
		if err == nil || !strings.Contains(err.Error(), strings.Join(want, ", ")) {
			t.Errorf("ByName(%q) = %v, want an error listing the registry", gone, err)
		}
	}
}

func TestProblemValidate(t *testing.T) {
	p := smallProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Deadline = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero deadline validated")
	}
	bad2 := *p
	bad2.Sys = nil
	if err := bad2.Validate(); err == nil {
		t.Error("nil system validated")
	}
}

func TestExhaustiveIsOptimal(t *testing.T) {
	p := smallProblem()
	best, err := Exhaustive{}.AllocateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	bestPhi, err := p.Objective(best)
	if err != nil {
		t.Fatal(err)
	}
	sysmodel.EnumerateAllocations(p.Sys, p.Batch, func(al sysmodel.Allocation) bool {
		phi, err := p.Objective(al)
		if err == nil && phi > bestPhi+1e-12 {
			t.Fatalf("allocation %v has phi %v > exhaustive %v", al, phi, bestPhi)
		}
		return true
	})
}

// A capacity space whose bound table would exceed maxBoundCells is
// scanned unpruned, with the full scan's result.
func TestExhaustiveAboveBoundCap(t *testing.T) {
	p := smallProblem()
	p.Sys.Types[1].Count = maxBoundCells
	if err := p.PrecomputeContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if p.newBound() != nil {
		t.Fatal("bound table built above its cap")
	}
	got, err := (&Exhaustive{Workers: 1}).AllocateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnprunedExhaustive(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("exhaustive %v, full scan %v", got, want)
	}
}

func TestAllHeuristicsFeasibleOnRandomInstances(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, apps := range []int{1, 2, 4} {
			p := randomProblem(seed, apps)
			for _, name := range Names() {
				h, _ := ByName(name)
				al, err := h.AllocateContext(context.Background(), p)
				if err != nil {
					t.Errorf("seed %d apps %d %s: %v", seed, apps, name, err)
					continue
				}
				if err := al.Validate(p.Sys, p.Batch); err != nil {
					t.Errorf("seed %d apps %d %s: infeasible: %v", seed, apps, name, err)
				}
			}
		}
	}
}

func TestHeuristicsNeverBeatExhaustive(t *testing.T) {
	for seed := uint64(10); seed < 14; seed++ {
		p := randomProblem(seed, 3)
		opt, err := Exhaustive{}.AllocateContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		optPhi, err := p.Objective(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Names() {
			if name == "exhaustive" {
				continue
			}
			h, _ := ByName(name)
			al, err := h.AllocateContext(context.Background(), p)
			if err != nil {
				t.Errorf("seed %d %s: %v", seed, name, err)
				continue
			}
			phi, err := p.Objective(al)
			if err != nil {
				t.Fatal(err)
			}
			if phi > optPhi+1e-9 {
				t.Errorf("seed %d: %s phi %v beats exhaustive %v", seed, name, phi, optPhi)
			}
		}
	}
}

func TestMetaheuristicsReachOptimumOnSmall(t *testing.T) {
	p := smallProblem()
	opt, err := Exhaustive{}.AllocateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	optPhi, _ := p.Objective(opt)
	al, err := (&TabuSearch{}).AllocateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if phi, _ := p.Objective(al); phi < optPhi-0.02 {
		t.Errorf("tabu phi %v far from optimum %v on a tiny instance", phi, optPhi)
	}
}

func TestRepairShrinksOversubscription(t *testing.T) {
	p := smallProblem()
	al := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 0, Procs: 2}} // 4 > 2 of T1
	if !repair(p, al) {
		t.Fatal("repair failed")
	}
	if err := al.Validate(p.Sys, p.Batch); err != nil {
		t.Fatalf("repair left infeasible allocation: %v", err)
	}
	// Power-of-2 invariant preserved.
	for _, as := range al {
		if as.Procs&(as.Procs-1) != 0 {
			t.Errorf("repair broke power-of-2: %d", as.Procs)
		}
	}
}

func TestRepairFailsWhenImpossible(t *testing.T) {
	// 3 applications on 2 processors of a single type cannot fit.
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 2, Avail: pmf.Point(1)},
	}}
	app := sysmodel.Application{
		Name: "a", SerialIters: 1, ParallelIters: 10,
		ExecTime: []pmf.PMF{pmf.Point(100)},
	}
	p := &Problem{Sys: sys, Batch: sysmodel.Batch{app, app, app}, Deadline: 100}
	al := sysmodel.Allocation{{Type: 0, Procs: 1}, {Type: 0, Procs: 1}, {Type: 0, Procs: 1}}
	if repair(p, al) {
		t.Error("repair succeeded on an impossible instance")
	}
}

func TestNeighborPreservesFeasibility(t *testing.T) {
	p := smallProblem()
	r := rng.New(1)
	cur, ok := randomAllocation(p, r)
	if !ok {
		t.Fatal("no initial allocation")
	}
	for i := 0; i < 200; i++ {
		next, ok := neighbor(p, cur, r)
		if !ok {
			continue
		}
		if err := next.Validate(p.Sys, p.Batch); err != nil {
			t.Fatalf("neighbor produced infeasible allocation: %v", err)
		}
		cur = next
	}
}

func TestRandomAllocationAlwaysFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		p := randomProblem(seed%1000, int(seed%4)+1)
		r := rng.New(seed)
		al, ok := randomAllocation(p, r)
		if !ok {
			return false
		}
		return al.Validate(p.Sys, p.Batch) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScoreOrdering(t *testing.T) {
	a := score{phi: 0.9, maxExp: 100, sumExp: 200, defined: true}
	b := score{phi: 0.8, maxExp: 50, sumExp: 100, defined: true}
	if !a.better(b) {
		t.Error("higher phi should win")
	}
	c := score{phi: 0.9, maxExp: 90, sumExp: 300, defined: true}
	if !c.better(a) {
		t.Error("equal phi, lower maxExp should win")
	}
	d := score{phi: 0.9, maxExp: 100, sumExp: 150, defined: true}
	if !d.better(a) {
		t.Error("equal phi and maxExp, lower sumExp should win")
	}
	if !a.better(score{}) {
		t.Error("anything beats undefined")
	}
}

func TestObjectiveMatchesScorePhi(t *testing.T) {
	p := smallProblem()
	al := sysmodel.Allocation{{Type: 1, Procs: 2}, {Type: 1, Procs: 2}}
	phi, err := p.Objective(al)
	if err != nil {
		t.Fatal(err)
	}
	s := p.scoreOf(al)
	if math.Abs(phi-s.phi) > 1e-12 {
		t.Errorf("Objective %v != scoreOf.phi %v", phi, s.phi)
	}
}
