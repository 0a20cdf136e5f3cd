package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"cdsf/internal/api"
	"cdsf/internal/core"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/rng"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// TestScenario4FirstTechniqueBitsPinned pins the outcome of the first
// technique of every Stage-II cell of paper scenario 4 (seed 42) to
// values recorded when each technique still drew its own costs on a
// technique-salted seed. The first technique's seed carried no salt,
// so sharing draws between the techniques of a cell must leave it
// bit-identical; the other techniques moved, by design.
func TestScenario4FirstTechniqueBitsPinned(t *testing.T) {
	pinned := []struct {
		ci, app              int
		tech                 string
		mean, stdDev, prMeet uint64
	}{
		{0, 0, "FAC", 0x409526892b16fa83, 0x4061b3fba896f462, 0x3ff0000000000000},
		{0, 1, "FAC", 0x409e24c240f0cf2a, 0x4064bc0d4bb134bb, 0x3ff0000000000000},
		{0, 2, "FAC", 0x40a0855e6ec7f0df, 0x406fdcb8fd39fbcb, 0x3ff0000000000000},
		{1, 0, "FAC", 0x40a19dfe2b2b4e56, 0x4067331abb7e2de4, 0x3ff0000000000000},
		{1, 1, "FAC", 0x40a947a98ffc7a95, 0x406f14b5b5d6bc41, 0x3fd2222222222222},
		{1, 2, "FAC", 0x40a23588d8b646b9, 0x406c1ad5805daca9, 0x3ff0000000000000},
		{2, 0, "FAC", 0x409ddf7359c18330, 0x40681d5bd16485aa, 0x3ff0000000000000},
		{2, 1, "FAC", 0x40a5436f5c982501, 0x406add75c23d9d15, 0x3fef777777777777},
		{2, 2, "FAC", 0x40a805051db71ce4, 0x407512e4cdd9c28f, 0x3fdeeeeeeeeeeeef},
		{3, 0, "FAC", 0x40a62268ac7ab2a2, 0x408214297b8c771d, 0x3fe6eeeeeeeeeeef},
		{3, 1, "FAC", 0x40ae81009df4db8c, 0x40872cebb8c99c2a, 0x3fd2222222222222},
		{3, 2, "FAC", 0x40a57e14c74724c0, 0x4071fcad58f32592, 0x3fef777777777777},
	}
	res, err := RunPaperScenarioContext(context.Background(), 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pinned {
		o := res.Cases[p.ci].PerApp[p.app][0]
		got := [3]uint64{math.Float64bits(o.MeanTime), math.Float64bits(o.StdDev), math.Float64bits(o.PrMeet)}
		if o.Technique != p.tech || got != [3]uint64{p.mean, p.stdDev, p.prMeet} {
			t.Errorf("case %d app %d: %s mean/sd/pr %#x, pinned %s %#x", p.ci, p.app, o.Technique, got, p.tech, [3]uint64{p.mean, p.stdDev, p.prMeet})
		}
	}
}

// TestMetaheuristicBitsPinned pins the allocation and phi_1 that tabu
// returns at its default settings, under the default seed and under
// seed 7, on the paper instance and on the slack-1.2 synthetic
// instances SyntheticInstance(1000+apps, ...) at 6x24 and 10x48. The
// walk is seeded, so any change to its move order, rng stream or tabu
// bookkeeping shows up here.
func TestMetaheuristicBitsPinned(t *testing.T) {
	pinned := []struct {
		inst, heuristic string
		seed            uint64
		alloc           string
		phi1            float64
	}{
		{"paper", "tabu", 0, "app0->T0x2 app1->T0x2 app2->T1x8", 0x1.7d70a3d70a3dbp-01},
		{"paper", "tabu", 7, "app0->T0x2 app1->T0x2 app2->T1x8", 0x1.7d70a3d70a3dbp-01},
		{"6x24", "tabu", 0, "app0->T1x8 app1->T1x4 app2->T0x4 app3->T1x4 app4->T0x2 app5->T0x2", 0x1.fd70a3d70a2cp-01},
		{"6x24", "tabu", 7, "app0->T1x8 app1->T1x4 app2->T0x4 app3->T1x4 app4->T0x2 app5->T0x2", 0x1.fd70a3d70a2cp-01},
		{"10x48", "tabu", 0, "app0->T1x4 app1->T0x4 app2->T0x1 app3->T0x1 app4->T1x16 app5->T0x2 app6->T0x1 app7->T0x2 app8->T0x4 app9->T0x1", 0x1.7e147ae147a7p-01},
		{"10x48", "tabu", 7, "app0->T1x4 app1->T0x4 app2->T0x1 app3->T0x2 app4->T1x16 app5->T0x2 app6->T0x1 app7->T0x2 app8->T0x4 app9->T1x8", 0x1.7e147ae147a29p-01},
	}
	f := Framework()
	insts := map[string]*ra.Problem{"paper": {Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}}
	for _, sz := range [][3]int{{6, 8, 16}, {10, 16, 32}} {
		p, err := SyntheticInstance(uint64(1000+sz[0]), sz[0], sz[1], sz[2], 1.2)
		if err != nil {
			t.Fatal(err)
		}
		insts[fmt.Sprintf("%dx%d", sz[0], sz[1]+sz[2])] = p
	}
	for _, c := range pinned {
		h, err := ra.ByName(c.heuristic)
		if err != nil {
			t.Fatal(err)
		}
		if c.seed != 0 {
			ra.SetSeed(h, c.seed)
		}
		p := insts[c.inst]
		al, err := h.AllocateContext(context.Background(), p)
		if err != nil {
			t.Fatalf("%s %s seed %d: %v", c.inst, c.heuristic, c.seed, err)
		}
		phi, err := p.Objective(al)
		if err != nil {
			t.Fatal(err)
		}
		if al.String() != c.alloc || math.Float64bits(phi) != math.Float64bits(c.phi1) {
			t.Errorf("%s %s seed %d: %s phi1 %x, pinned %s %x", c.inst, c.heuristic, c.seed, al, phi, c.alloc, c.phi1)
		}
	}
}

// TestTabuDAGBitsPinned pins the allocation and phi_1 that tabu
// returns on a precedence-constrained batch, where every neighbor it
// samples is scored by composing completion PMFs along the edges:
// five applications of 6-pulse execution times in three layers
// (LayeredEdges seed 3, density 0.5) over 4 + 8 processors, under
// seeds 2 and 3, whose walks end in different allocations. The values
// were recorded when tabu composed every sampled neighbor afresh, so a
// walk that reuses scores must reproduce them bit for bit.
func TestTabuDAGBitsPinned(t *testing.T) {
	pinned := []struct {
		seed  uint64
		alloc string
		phi1  float64
	}{
		{2, "app0->T1x4 app1->T0x2 app2->T1x2 app3->T0x2 app4->T1x2", 0x1.28f68ebabe059p-02},
		{3, "app0->T0x2 app1->T1x4 app2->T0x2 app3->T1x2 app4->T1x2", 0x1.c9c17e118ef08p-02},
	}
	p := smallDAGProblem()
	for _, c := range pinned {
		h, err := ra.ByName("tabu")
		if err != nil {
			t.Fatal(err)
		}
		ra.SetSeed(h, c.seed)
		al, err := h.AllocateContext(context.Background(), p)
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		phi, err := p.Objective(al)
		if err != nil {
			t.Fatal(err)
		}
		if al.String() != c.alloc || math.Float64bits(phi) != math.Float64bits(c.phi1) {
			t.Errorf("seed %d: %s phi1 %x, pinned %s %x", c.seed, al, phi, c.alloc, c.phi1)
		}
	}
}

// smallDAGProblem is TestTabuDAGBitsPinned's instance. Its deadline is
// 1.3 times the critical path of expected completion times on four
// processors of type 2.
func smallDAGProblem() *ra.Problem {
	const apps = 5
	r := rng.New(5)
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "Type 1", Count: 4, Avail: availCase1Type1},
		{Name: "Type 2", Count: 8, Avail: pmf.Point(0.75)},
	}}
	batch := make(sysmodel.Batch, apps)
	est := make([]float64, apps)
	for i := range batch {
		exec := make([]pmf.PMF, 2)
		for j := range exec {
			mu := 600 * (1 + 3*r.Float64())
			exec[j] = pmf.Discretize(stats.NewNormal(mu, mu/10), 6)
		}
		batch[i] = sysmodel.Application{Name: fmt.Sprintf("App %d", i+1), SerialIters: 50, ParallelIters: 950, ExecTime: exec}
		est[i] = batch[i].CompletionPMF(1, 4, sys.Types[1].Avail).Mean()
	}
	edges := LayeredEdges(3, apps, 3, 0.5)
	finish := make([]float64, apps)
	cp := 0.0
	for i := range finish {
		ready := 0.0
		for _, e := range edges {
			if e.To == i {
				ready = math.Max(ready, finish[e.From])
			}
		}
		finish[i] = ready + est[i]
		cp = math.Max(cp, finish[i])
	}
	return &ra.Problem{Sys: sys, Batch: batch, Edges: edges, Deadline: math.Round(1.3 * cp)}
}

// TestStageIIDocumentsPinned pins every bit of paper scenario 4's
// result document (api.FromScenarioResult, JSON-encoded: every
// technique of every cell, the Stage-I block and the robustness
// tuple) at seeds 42 and 7, and of scenario 4 on a fork-join DAG whose
// arms are release-gated, as SHA-256 digests recorded when every
// iteration cost was drawn by its own Sample call.
func TestStageIIDocumentsPinned(t *testing.T) {
	pinned := []struct {
		name   string
		seed   uint64
		dag    bool
		digest string
	}{
		{"scenario 4 seed 42", 42, false, "06ea82a50f81097b0c73c947a5f55197081565741400760c9c11c8a2eb4e0a0a"},
		{"scenario 4 seed 7", 7, false, "7112d249f5a0919e5c71815081457c621f71420377c25ee76e7e0191bf541f9c"},
		{"scenario 4 fork-join DAG seed 5", 5, true, "9c79202543b0c2363db66b5e2e5d9d2493785de609ae7fb4d722ee0793925600"},
	}
	for _, p := range pinned {
		// RunPaperScenarioContext's run, on the DAG at 20 reps.
		f := Framework()
		cfg := core.DefaultStageII(Deadline, p.seed)
		if p.dag {
			f.Edges = ForkJoinEdges(len(f.Batch))
			cfg.Reps = 20
		}
		res, err := f.RunScenarioContext(context.Background(), scenarioByNumber(4), Cases(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(api.FromScenarioResult(res))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(doc)
		if d := hex.EncodeToString(sum[:]); d != p.digest {
			t.Errorf("%s: document digest %s, pinned %s; document:\n%s", p.name, d, p.digest, doc)
		}
	}
}
