package robustness_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"testing"

	"cdsf/internal/config"
	"cdsf/internal/experiments"
	"cdsf/internal/pmf"
	"cdsf/internal/rng"
	"cdsf/internal/robustness"
	"cdsf/internal/sysmodel"
)

// dagServiceInstance builds a seeded instance of the cdsfd DAG
// service shape: eight applications over the three BENCH_CACHE
// processor types at 50 pulses, seeded +-20% jitter on every mean
// execution time, and a three-layer random DAG at edge density 0.5.
func dagServiceInstance(t testing.TB, seed uint64) (*sysmodel.System, sysmodel.Batch, []sysmodel.Edge) {
	t.Helper()
	r := rng.New(seed)
	jitter := func(v float64) float64 { return math.Round(v * (0.8 + 0.4*r.Float64())) }
	inst := &config.Instance{
		Name:     "dag-service-shape",
		Deadline: 1,
		Pulses:   50,
		Types: []config.ProcTypeSpec{
			{Name: "T1", Count: 4, Availability: []config.PulseSpec{
				{Value: 75, Probability: 50}, {Value: 100, Probability: 50}}},
			{Name: "T2", Count: 8, Availability: []config.PulseSpec{
				{Value: 25, Probability: 25}, {Value: 50, Probability: 25}, {Value: 100, Probability: 50}}},
			{Name: "T3", Count: 16, Availability: []config.PulseSpec{
				{Value: 50, Probability: 50}, {Value: 100, Probability: 50}}},
		},
	}
	for i := 0; i < 8; i++ {
		fi := float64(i)
		inst.Applications = append(inst.Applications, config.ApplicationSpec{
			Name:          fmt.Sprintf("App %d", i+1),
			SerialIters:   200 + 50*i,
			ParallelIters: 1024 + 512*i,
			ExecTimes: []config.ExecTimeSpec{
				{Mean: jitter(1500 + 300*fi)},
				{Mean: jitter(3000 + 500*fi)},
				{Mean: jitter(2000 + 400*fi)},
			},
		})
	}
	sys, batch, _, err := config.Build(inst)
	if err != nil {
		t.Fatal(err)
	}
	return sys, batch, experiments.LayeredEdges(seed, 8, 3, 0.5)
}

// TestComposeDAGBitsPinned pins the sparse DAG composition on a
// dag-service-shaped instance to exact bits: phi_1, every
// application's composed P(C_i <= deadline) and E[C_i] as hex floats,
// and a SHA-256 over the value and probability bits of every composed
// pulse. The third layer's Adds combine ~1800-pulse ready times with
// 100-pulse completion PMFs, far more sums than DAGMaxPulses, so the
// pin covers the order in which pmf.AddCompact bins those sums into
// their cells, which the edge-free paper pins never reach.
func TestComposeDAGBitsPinned(t *testing.T) {
	sys, batch, edges := dagServiceInstance(t, 12)
	alloc := sysmodel.Allocation{
		{Type: 0, Procs: 2}, {Type: 0, Procs: 2},
		{Type: 1, Procs: 4}, {Type: 1, Procs: 4},
		{Type: 2, Procs: 4}, {Type: 2, Procs: 4}, {Type: 2, Procs: 4}, {Type: 2, Procs: 4},
	}
	const deadline = 6000

	// Third-layer applications are 5..7 (layers [0,2), [2,5), [5,8)).
	// Recompute each one's ready time the way ComposeDAG does and check
	// that its Add bins more sums than the cap.
	dists := make([]pmf.PMF, len(batch))
	for i, as := range alloc {
		dists[i] = batch[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail)
	}
	comp, err := sysmodel.ComposeDAG(dists, edges, sysmodel.DAGMaxPulses)
	if err != nil {
		t.Fatal(err)
	}
	preds := sysmodel.Preds(edges, len(batch))
	for i := 5; i < 8; i++ {
		ready := comp[preds[i][0]]
		for _, p := range preds[i][1:] {
			ready = pmf.Max(ready, comp[p]).Compact(sysmodel.DAGMaxPulses)
		}
		if n := ready.Len() * dists[i].Len(); n <= sysmodel.DAGMaxPulses {
			t.Fatalf("app %d: layer-2 Add has %d sums; the pin must bin more than %d", i, n, sysmodel.DAGMaxPulses)
		}
	}

	res, err := robustness.EvaluateStageIDAG(sys, batch, edges, alloc, deadline)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantPhi1 = "0x1.062bfb7f3dc96p-02"
		wantSum  = "be6f4543d9c9bfa8c67481aab8d0aba168987f03de21c72bea82acf71fd6797d"
	)
	wantPerApp := []string{
		"0x1p+00", "0x1p+00", "0x1.844d013a92a7bp-01", "0x1.8000000000054p-01",
		"0x1p+00", "0x1.4af954eb13dffp-01", "0x1.5e056168d0a4cp-01", "0x1.28a009f623079p-01",
	}
	wantMean := []string{
		"0x1.d5f6efd36199ep+09", "0x1.5f4783646e768p+10", "0x1.fc03f2e832b63p+11", "0x1.1b481aade2fb3p+12",
		"0x1.9c92d47257defp+11", "0x1.6a2565b79efdap+12", "0x1.5b2c16ac233f6p+12", "0x1.939e5ec61b589p+12",
	}
	check := func(what string, got float64, want string) {
		t.Helper()
		w, err := strconv.ParseFloat(want, 64)
		if err != nil {
			t.Fatalf("parsing golden %q: %v", want, err)
		}
		if math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("%s = %x, pinned %s", what, got, want)
		}
	}
	check("phi1", res.Phi1, wantPhi1)
	for i := range batch {
		check(fmt.Sprintf("perApp[%d]", i), res.PerApp[i], wantPerApp[i])
		check(fmt.Sprintf("mean[%d]", i), res.ExpectedTimes[i], wantMean[i])
	}
	h := sha256.New()
	var buf [8]byte
	for _, c := range res.Completion {
		for k := 0; k < c.Len(); k++ {
			pl := c.At(k)
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pl.Value))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pl.Prob))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSum {
		t.Errorf("composed pulse SHA-256 = %s, pinned %s", got, wantSum)
	}
}
