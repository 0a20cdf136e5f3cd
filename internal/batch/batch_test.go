package batch

import (
	"context"
	"fmt"
	"testing"

	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

func testSystem() *sysmodel.System {
	return &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "T1", Count: 4, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.75, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
		{Name: "T2", Count: 8, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
	}}
}

func templates() []sysmodel.Application {
	mk := func(mu1, mu2 float64) sysmodel.Application {
		return sysmodel.Application{
			Name:          "tmpl",
			SerialIters:   50,
			ParallelIters: 950,
			ExecTime: []pmf.PMF{
				pmf.Discretize(stats.NewNormal(mu1, mu1/10), 40),
				pmf.Discretize(stats.NewNormal(mu2, mu2/10), 40),
			},
		}
	}
	return []sysmodel.Application{mk(800, 1200), mk(1500, 1000), mk(2200, 2600)}
}

func config() Config {
	return Config{
		Sys: testSystem(),
		Arrivals: ArrivalProcess{
			Interarrival: stats.NewExponential(1.0 / 300),
			Templates:    templates(),
		},
		Heuristic: ra.Greedy{},
		Deadline:  2500,
		MaxBatch:  4,
		Jobs:      40,
		Seed:      1,
	}
}

func TestRunBasicInvariants(t *testing.T) {
	res, err := RunContext(context.Background(), config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 40 {
		t.Fatalf("got %d jobs", len(res.Jobs))
	}
	if len(res.Batches) == 0 {
		t.Fatal("no batches")
	}
	totalJobs := 0
	prevStart := -1.0
	for _, b := range res.Batches {
		if b.Jobs <= 0 || b.Jobs > 4 {
			t.Errorf("batch %d has %d jobs (max 4)", b.Index, b.Jobs)
		}
		if b.Start <= prevStart {
			t.Errorf("batch %d start %v not after previous %v", b.Index, b.Start, prevStart)
		}
		if b.Makespan <= 0 {
			t.Errorf("batch %d makespan %v", b.Index, b.Makespan)
		}
		if b.Phi1 < 0 || b.Phi1 > 1 {
			t.Errorf("batch %d phi1 %v", b.Index, b.Phi1)
		}
		prevStart = b.Start
		totalJobs += b.Jobs
	}
	if totalJobs != 40 {
		t.Errorf("batches cover %d jobs", totalJobs)
	}
	for _, j := range res.Jobs {
		if j.Wait() < 0 {
			t.Errorf("job %d has negative wait %v", j.ID, j.Wait())
		}
		if j.Finish <= j.Start {
			t.Errorf("job %d finish %v <= start %v", j.ID, j.Finish, j.Start)
		}
		if j.Start < j.Arrival {
			t.Errorf("job %d started before arrival", j.ID)
		}
	}
	if res.DeadlineRate < 0 || res.DeadlineRate > 1 {
		t.Errorf("deadline rate %v", res.DeadlineRate)
	}
	if res.MeanBatchSize <= 0 || res.MeanBatchSize > 4 {
		t.Errorf("mean batch size %v", res.MeanBatchSize)
	}
	if res.MakespanTotal <= 0 {
		t.Errorf("total makespan %v", res.MakespanTotal)
	}
}

// A seeded run is reproducible, also under an instrumentation scope,
// which receives every batch's Stage-I search counters.
func TestRunDeterministic(t *testing.T) {
	a, err := RunContext(context.Background(), config())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config()
	cfg.Obs.Metrics = metrics.NewRegistry()
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanTotal != b.MakespanTotal || len(a.Batches) != len(b.Batches) {
		t.Error("batch simulation not deterministic")
	}
	if cfg.Obs.Metrics.Counter("ra.precompute_cells").Value() == 0 {
		t.Error("the scope saw no Stage-I table build")
	}
}

func TestUnboundedBatch(t *testing.T) {
	cfg := config()
	cfg.MaxBatch = 0
	cfg.Jobs = 10
	// Slow arrivals relative to service: batches stay small anyway.
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range res.Batches {
		total += b.Jobs
	}
	if total != 10 {
		t.Errorf("batches cover %d of 10 jobs", total)
	}
}

func TestFasterArrivalsGrowBatches(t *testing.T) {
	slow := config()
	slow.MaxBatch = 0
	slow.Arrivals.Interarrival = stats.NewExponential(1.0 / 2000)
	fast := config()
	fast.MaxBatch = 0
	fast.Arrivals.Interarrival = stats.NewExponential(1.0 / 50)
	rs, err := RunContext(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := RunContext(context.Background(), fast)
	if err != nil {
		t.Fatal(err)
	}
	if rf.MeanBatchSize <= rs.MeanBatchSize {
		t.Errorf("faster arrivals did not grow batches: %v vs %v",
			rf.MeanBatchSize, rs.MeanBatchSize)
	}
}

func TestExpectedExecutorIsMaxOfMeans(t *testing.T) {
	sys := testSystem()
	b := sysmodel.Batch{templates()[0], templates()[2]}
	al := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	mk, err := ExpectedExecutor{}.Execute(context.Background(), sys, b, al, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := range b {
		m := b[i].CompletionPMF(al[i].Type, al[i].Procs, sys.Types[al[i].Type].Avail).Mean()
		if m > want {
			want = m
		}
	}
	if mk != want {
		t.Errorf("executor makespan %v != max mean %v", mk, want)
	}
}

func TestValidationErrors(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Sys = nil },
		func(c *Config) { c.Jobs = 0 },
		func(c *Config) { c.Arrivals.Templates = nil },
		func(c *Config) { c.Arrivals.Interarrival = nil },
		func(c *Config) { c.Heuristic = nil },
	}
	for i, mod := range mods {
		cfg := config()
		mod(&cfg)
		if _, err := RunContext(context.Background(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

type failingExecutor struct{}

func (failingExecutor) Execute(context.Context, *sysmodel.System, sysmodel.Batch, sysmodel.Allocation, uint64) (float64, error) {
	return 0, fmt.Errorf("boom")
}

func TestExecutorErrorPropagates(t *testing.T) {
	cfg := config()
	cfg.Executor = failingExecutor{}
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Error("executor error swallowed")
	}
}
