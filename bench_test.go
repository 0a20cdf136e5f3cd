// Package cdsf_bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks, plus ablation benches for the design
// choices DESIGN.md calls out (RA heuristic quality, PMF granularity,
// DLS technique cost, availability-model choice, overhead sensitivity).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package cdsf_bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/availability"
	"cdsf/internal/batch"
	"cdsf/internal/cache"
	"cdsf/internal/config"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/experiments"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/rng"
	"cdsf/internal/robustness"
	"cdsf/internal/server"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

// ---------------------------------------------------------------------
// Paper tables

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.GenerateTableI() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.GenerateTableII() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.GenerateTableIII() == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkTableIV runs both Stage-I policies (naive load balancing and
// the exhaustive optimum) on the paper instance.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GenerateTableIVContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableV computes the expected completion times of both
// Table IV allocations.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GenerateTableVContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVI runs the full scenario-4 evaluation (Stage I +
// Stage-II simulations across all four cases) behind Table VI.
func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.GenerateTableVIContext(context.Background(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhi1 isolates the headline Stage-I computation: the joint
// deadline probability of the robust allocation.
func BenchmarkPhi1(b *testing.B) {
	f := experiments.Framework()
	alloc := experiments.PaperRobustAllocation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi, err := robustness.StageIProbability(f.Sys, f.Batch, alloc, f.Deadline)
		if err != nil {
			b.Fatal(err)
		}
		if phi < 0.7 || phi > 0.8 {
			b.Fatalf("phi1 = %v", phi)
		}
	}
}

// ---------------------------------------------------------------------
// Paper figures (scenarios 1-4)

func benchFigure(b *testing.B, n int) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GenerateFigureContext(context.Background(), n, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) { benchFigure(b, 3) }
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5) }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }

// ---------------------------------------------------------------------
// Ablation: Stage-I heuristics on the paper instance (make
// bench-stage1)

func BenchmarkRAHeuristic(b *testing.B) {
	f := experiments.Framework()
	prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}
	for _, name := range ra.Names() {
		h, err := ra.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.AllocateContext(context.Background(), prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablation: DLS techniques in the Stage-II simulator (paper app 3,
// case 1 availability)

func BenchmarkDLSTechnique(b *testing.B) {
	avail := pmf.MustNew([]pmf.Pulse{
		{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	for _, tech := range dls.All() {
		b.Run(tech.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := sim.RunContext(context.Background(), sim.Config{
					SerialIters:      216,
					ParallelIters:    4104,
					Workers:          8,
					IterTime:         stats.NewNormal(1.852, 0.3*1.852),
					Avail:            availability.NewMarkov(avail, 812.5, 0.5),
					Technique:        tech,
					WeightsFromAvail: true,
					BestMaster:       true,
					Overhead:         1,
					Seed:             uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStageIICell is one Stage-II cell of the paper scenario as
// core runs it (DefaultStageII): application 3 on its robust allocation
// (8 processors of type 2) under case 1 availability, the robust set
// {FAC, WF, AWF-B, AF} on shared draws for 60 repetitions. Scenario 4
// meets the deadline in case 1, so every technique's mean makespan
// must.
func BenchmarkStageIICell(b *testing.B) {
	f := experiments.Framework()
	as := experiments.PaperRobustAllocation()[2]
	app := f.Batch[2]
	stage2 := core.DefaultStageII(f.Deadline, 0)
	iterMean := app.ExecTime[as.Type].Mean() / float64(app.TotalIters())
	cfg := sim.Config{
		SerialIters:   app.SerialIters,
		ParallelIters: app.ParallelIters,
		Workers:       as.Procs,
		IterTime: stats.Truncated{
			Dist: stats.NewNormal(iterMean, stage2.IterCV*iterMean),
			Lo:   iterMean * 1e-3,
			Hi:   iterMean * 1e3,
		},
		Avail:            stage2.Model(experiments.Cases()[0].Avail[as.Type]),
		Overhead:         stage2.Overhead,
		WeightsFromAvail: true,
		BestMaster:       true,
	}
	var arms []sim.Arm
	for _, t := range core.RobustRAS() {
		arms = append(arms, sim.Arm{Technique: t})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		samples, err := sim.RunArmsContext(context.Background(), cfg, arms, stage2.Reps)
		if err != nil {
			b.Fatal(err)
		}
		for a, s := range samples {
			if len(s.Makespans) != stage2.Reps || !(s.Mean() > 0 && s.Mean() <= f.Deadline) {
				b.Fatalf("%s: %d makespans of mean %v, want %d within the deadline %v",
					arms[a].Technique.Name, len(s.Makespans), s.Mean(), stage2.Reps, f.Deadline)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Ablation: PMF pulse-count (bin width) sensitivity of phi1

func BenchmarkPMFGranularity(b *testing.B) {
	for _, pulses := range []int{10, 50, 250, 1000} {
		b.Run(fmt.Sprintf("pulses-%d", pulses), func(b *testing.B) {
			batch := experiments.PaperBatch(pulses)
			sys := experiments.ReferenceSystem()
			alloc := experiments.PaperRobustAllocation()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := robustness.StageIProbability(sys, batch, alloc, experiments.Deadline); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablation: PMF algebra primitives

func BenchmarkPMFOps(b *testing.B) {
	d := stats.NewNormal(1000, 100)
	p := pmf.Discretize(d, 250)
	avail := pmf.MustNew([]pmf.Pulse{
		{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	b.Run("Div", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pmf.Div(p, avail)
		}
	})
	b.Run("Add", func(b *testing.B) {
		q := pmf.Discretize(d, 50)
		for i := 0; i < b.N; i++ {
			_ = pmf.Add(q, avail)
		}
	})
	b.Run("Max", func(b *testing.B) {
		q := pmf.Discretize(d, 50)
		for i := 0; i < b.N; i++ {
			_ = pmf.Max(q, q)
		}
	})
	b.Run("PrLE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.PrLE(1000)
		}
	})
	b.Run("Compact", func(b *testing.B) {
		big := pmf.Discretize(d, 2000)
		for i := 0; i < b.N; i++ {
			_ = big.Compact(100)
		}
	})
	b.Run("Discretize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pmf.Discretize(d, 250)
		}
	})
}

// ---------------------------------------------------------------------
// Ablation: availability-model choice in the Stage-II simulator

func BenchmarkAvailabilityModel(b *testing.B) {
	avail := pmf.MustNew([]pmf.Pulse{
		{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	af, _ := dls.ByName("AF")
	models := []availability.Model{
		availability.Static{PMF: avail},
		availability.Redraw{PMF: avail, Interval: 812.5},
		availability.NewMarkov(avail, 812.5, 0.5),
	}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := sim.RunContext(context.Background(), sim.Config{
					ParallelIters: 4096,
					Workers:       8,
					IterTime:      stats.NewNormal(1, 0.3),
					Avail:         m,
					Technique:     af,
					Overhead:      1,
					Seed:          uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablation: scheduling-overhead sensitivity (FAC vs SS)

func BenchmarkOverheadSensitivity(b *testing.B) {
	for _, name := range []string{"SS", "FAC", "AF"} {
		tech, _ := dls.ByName(name)
		for _, h := range []float64{0, 1, 10} {
			b.Run(fmt.Sprintf("%s/h=%g", name, h), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := sim.RunContext(context.Background(), sim.Config{
						ParallelIters: 2048,
						Workers:       8,
						IterTime:      stats.NewNormal(1, 0.3),
						Avail:         availability.Static{PMF: pmf.Point(1)},
						Technique:     tech,
						Overhead:      h,
						Seed:          uint64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Future-work: the probabilistic scale study (one size, reduced
// instances, to keep the benchmark affordable)

func BenchmarkScaleStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultScaleConfig(uint64(i))
		cfg.Instances = 3
		cfg.Sizes = [][3]int{{6, 8, 16}}
		cfg.Reps = 6
		if _, err := experiments.RunScaleStudyContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation: sensitivity studies (reduced repetitions)

func BenchmarkSensitivityStudies(b *testing.B) {
	b.Run("overhead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.GenerateOverheadSensitivity(uint64(i), 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("correlation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.GenerateCorrelationStudy(uint64(i), 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("granularity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.GenerateGranularitySensitivity(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Ablation: exhaustive Stage-I search, warm evaluation table, one
// worker: the paper instance's first 1-3 applications, and the
// tournament's slack-1.2 instances SyntheticInstance(1000+apps, ...)
// at 6x24 (62,137 allocations) and 10x48 (647,993,773), which the
// branch-and-bound solves by scoring a small fraction of the space
// (make bench-stage1).

func BenchmarkExhaustiveEnumeration(b *testing.B) {
	bench := func(b *testing.B, prob *ra.Problem) {
		h := &ra.Exhaustive{Workers: 1}
		if err := prob.PrecomputeContext(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.AllocateContext(context.Background(), prob); err != nil {
				b.Fatal(err)
			}
		}
	}
	f := experiments.Framework()
	for _, apps := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("apps-%d", apps), func(b *testing.B) {
			bench(b, &ra.Problem{Sys: f.Sys, Batch: f.Batch[:apps], Deadline: f.Deadline})
		})
	}
	for _, sz := range [][3]int{{6, 8, 16}, {10, 16, 32}} {
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]+sz[2]), func(b *testing.B) {
			prob, err := experiments.SyntheticInstance(uint64(1000+sz[0]), sz[0], sz[1], sz[2], 1.2)
			if err != nil {
				b.Fatal(err)
			}
			bench(b, prob)
		})
	}
}

// ---------------------------------------------------------------------
// CPU scaling: the parallel Stage-I engine at 1, 2, and NumCPU workers.
// Results are bit-identical across worker counts (the engine's hard
// guarantee), so these isolate pure wall-clock scaling.

// benchWorkerCounts returns the worker counts the scaling benches sweep.
func benchWorkerCounts() []int {
	ws := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		ws = append(ws, n)
	}
	return ws
}

// BenchmarkEvalTableBuild measures the cold concurrent build of the
// (app x type x log2 count) evaluation table on the paper instance.
func BenchmarkEvalTableBuild(b *testing.B) {
	f := experiments.Framework()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}
				if err := prob.PrecomputeContext(context.Background(), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExhaustiveParallel measures the partitioned exhaustive search
// over a warm table, isolating the enumeration fan-out.
func BenchmarkExhaustiveParallel(b *testing.B) {
	f := experiments.Framework()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline}
			if err := prob.PrecomputeContext(context.Background(), w); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&ra.Exhaustive{Workers: w}).AllocateContext(context.Background(), prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleStudyWorkers measures the scale study's per-cell
// fan-out (same reduced configuration as BenchmarkScaleStudy).
func BenchmarkScaleStudyWorkers(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultScaleConfig(uint64(i))
				cfg.Instances = 3
				cfg.Sizes = [][3]int{{6, 8, 16}}
				cfg.Reps = 6
				cfg.Workers = w
				if _, err := experiments.RunScaleStudyContext(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// New-module benchmarks: analytic STATIC runtime model, order
// statistics, simulator-vs-model validation, and the batch substrate.

func BenchmarkStaticRuntimeModel(b *testing.B) {
	f := experiments.Framework()
	app := &f.Batch[2]
	avail := f.Sys.Types[1].Avail
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = robustness.StaticRuntimePMF(app, 1, 8, avail, 300)
	}
}

func BenchmarkMaxN(b *testing.B) {
	p := pmf.Discretize(stats.NewNormal(1000, 100), 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pmf.MaxN(p, 8)
	}
}

func BenchmarkValidateStageI(b *testing.B) {
	f := experiments.Framework()
	alloc := experiments.PaperRobustAllocation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ValidateStageI(alloc, 0, 50, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchSubstrate(b *testing.B) {
	cfg := batch.Config{
		Sys: experiments.ReferenceSystem(),
		Arrivals: batch.ArrivalProcess{
			Interarrival: stats.NewExponential(1.0 / 800),
			Templates:    experiments.PaperBatch(100),
		},
		Heuristic: ra.Greedy{},
		Deadline:  experiments.Deadline,
		MaxBatch:  3,
		Jobs:      40,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := batch.RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation: sparse vs grid PMF backend on Stage-I-shaped workloads

// BenchmarkPMFBackends compares the two distribution backends on the
// shapes Stage I actually produces: completion-time divisions are
// ~750-pulse PMFs, and the makespan/objective path combines them with
// Add and Max. The grid rows include releasing the pooled output, so
// they measure the steady-state cost a table build pays per cell.
func BenchmarkPMFBackends(b *testing.B) {
	avail := pmf.MustNew([]pmf.Pulse{
		{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	exec := pmf.Discretize(stats.NewNormal(1000, 100), 250)
	comp := pmf.Div(exec, avail)
	comp2 := pmf.Div(pmf.Discretize(stats.NewNormal(1400, 150), 250), avail)
	step := float64(experiments.Deadline) / 1024
	g1 := comp.ToGrid(step)
	g2 := comp2.ToGrid(step)
	defer g1.Release()
	defer g2.Release()

	b.Run("Add/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pmf.Add(comp, comp2)
		}
	})
	b.Run("Add/grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g1.Add(g2).Release()
		}
	})
	b.Run("Max/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pmf.Max(comp, comp2)
		}
	})
	b.Run("Max/grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g1.MaxWith(g2).Release()
		}
	})
	b.Run("Div/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pmf.Div(exec, avail)
		}
	})
	b.Run("Div/grid", func(b *testing.B) {
		ge := exec.ToGrid(step)
		defer ge.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ge.DivPMF(avail).Release()
		}
	})
	b.Run("PrLE/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = comp.PrLE(experiments.Deadline)
		}
	})
	b.Run("PrLE/grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g1.PrLE(experiments.Deadline)
		}
	})
	// ToGrid is the grid backend's analogue of Compact: the one-time
	// quantization a PMF pays to enter the dense representation.
	b.Run("ToGrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			comp.ToGrid(step).Release()
		}
	})
}

// ---------------------------------------------------------------------
// Content-addressed solve cache: result-tier replay at the service
// layer, warm-table reuse, and delta-solve (see DESIGN.md section 10,
// make bench-cache, BENCH_CACHE.json).

// benchCacheInstance builds a synthetic instance of seven applications
// over three processor types. It was sized for an unpruned exhaustive
// Stage-I solve of about a second, which BENCH_CACHE.json's cold rows
// record; the branch-and-bound solves it in milliseconds, so the cold
// solve now costs a few HTTP round trips.
func benchCacheInstance(apps, pulses int) *config.Instance {
	inst := &config.Instance{
		Name:     "bench-cache",
		Deadline: 9000,
		Pulses:   pulses,
		Types: []config.ProcTypeSpec{
			{Name: "T1", Count: 4, Availability: []config.PulseSpec{
				{Value: 75, Probability: 50}, {Value: 100, Probability: 50}}},
			{Name: "T2", Count: 8, Availability: []config.PulseSpec{
				{Value: 25, Probability: 25}, {Value: 50, Probability: 25}, {Value: 100, Probability: 50}}},
			{Name: "T3", Count: 16, Availability: []config.PulseSpec{
				{Value: 50, Probability: 50}, {Value: 100, Probability: 50}}},
		},
	}
	for i := 0; i < apps; i++ {
		inst.Applications = append(inst.Applications, config.ApplicationSpec{
			Name:          fmt.Sprintf("App %d", i+1),
			SerialIters:   200 + 50*i,
			ParallelIters: 1024 + 512*i,
			ExecTimes: []config.ExecTimeSpec{
				{Mean: 1500 + 300*float64(i)},
				{Mean: 3000 + 500*float64(i)},
				{Mean: 2000 + 400*float64(i)},
			},
		})
	}
	return inst
}

// benchSolveJob submits one solve request and drives it to a terminal
// state, returning the final envelope. Result-tier hits come back
// already done on the POST; cold jobs are polled.
func benchSolveJob(b *testing.B, base string, body []byte) api.Job {
	b.Helper()
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: status %d", resp.StatusCode)
	}
	for !job.State.Terminal() {
		time.Sleep(200 * time.Microsecond)
		r, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
	}
	if job.State != api.JobDone {
		b.Fatalf("job ended %s: %s", job.State, job.Error)
	}
	return job
}

// BenchmarkCacheServer measures submit-to-done wall time at the
// service layer: "cold" solves a fresh key every iteration (the seed
// is part of the content address), "repeat" resubmits one byte-
// identical request and is answered from the result tier at admission
// time. The repeat/cold ratio is the headline latency collapse
// BENCH_CACHE.json records.
func BenchmarkCacheServer(b *testing.B) {
	inst := benchCacheInstance(7, 250)
	b.Run("cold", func(b *testing.B) {
		s := server.New(server.Options{Cache: cache.New(cache.Options{})})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(api.SolveRequest{Instance: inst, Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			job := benchSolveJob(b, ts.URL, body)
			if job.Cache == nil || job.Cache.ResultHit {
				b.Fatal("cold request served from cache")
			}
		}
	})
	b.Run("repeat", func(b *testing.B) {
		s := server.New(server.Options{Cache: cache.New(cache.Options{})})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body, err := json.Marshal(api.SolveRequest{Instance: inst, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchSolveJob(b, ts.URL, body) // populate the result tier
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job := benchSolveJob(b, ts.URL, body)
			if job.Cache == nil || !job.Cache.ResultHit {
				b.Fatal("repeat missed the result tier")
			}
		}
	})
}

// BenchmarkCacheWarmTable isolates tier (b): the Stage-I evaluation
// table built from scratch versus re-derived from warm cached
// completion distributions (PrLE reads over cached CDFs instead of
// PMF algebra).
func BenchmarkCacheWarmTable(b *testing.B) {
	sys, bat, deadline, err := config.Build(benchCacheInstance(6, 1000))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prob := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline,
				Cache: cache.New(cache.Options{})}
			if err := prob.PrecomputeContext(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := cache.New(cache.Options{})
		seed := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Cache: c}
		if err := seed.PrecomputeContext(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prob := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Cache: c}
			if err := prob.PrecomputeContext(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			if h, m := prob.CacheCounts(); h == 0 || m != 0 {
				b.Fatalf("warm build counts = (%d, %d)", h, m)
			}
		}
	})
}

// BenchmarkCacheDeltaSolve measures the delta-solve path: the same
// instance re-solved under a sweep of deadlines. Sparse completion
// distributions are deadline-invariant, so every deadline re-derives
// its table cells from the one warm entry instead of rebuilding.
func BenchmarkCacheDeltaSolve(b *testing.B) {
	sys, bat, deadline, err := config.Build(benchCacheInstance(6, 1000))
	if err != nil {
		b.Fatal(err)
	}
	factors := []float64{0.8, 0.9, 1.1, 1.25, 1.5}
	b.Run("cacheless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prob := &ra.Problem{Sys: sys, Batch: bat,
				Deadline: deadline * factors[i%len(factors)]}
			if err := prob.PrecomputeContext(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			if _, err := (ra.Greedy{}).AllocateContext(context.Background(), prob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := cache.New(cache.Options{})
		seed := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Cache: c}
		if err := seed.PrecomputeContext(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prob := &ra.Problem{Sys: sys, Batch: bat,
				Deadline: deadline * factors[i%len(factors)], Cache: c}
			if err := prob.PrecomputeContext(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			if h, m := prob.CacheCounts(); h == 0 || m != 0 {
				b.Fatalf("delta build counts = (%d, %d)", h, m)
			}
			if _, err := (ra.Greedy{}).AllocateContext(context.Background(), prob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveBackends measures the end-to-end Stage-I solve (table
// build + exhaustive search) on the paper instance under each backend.
func BenchmarkSolveBackends(b *testing.B) {
	f := experiments.Framework()
	for _, backend := range []pmf.Backend{pmf.BackendSparse, pmf.BackendGrid} {
		b.Run(string(backend), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline, Backend: backend}
				if err := prob.PrecomputeContext(context.Background(), 0); err != nil {
					b.Fatal(err)
				}
				if _, err := (&ra.Exhaustive{}).AllocateContext(context.Background(), prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// DAG composition on the cdsfd DAG service shape (DESIGN.md section 13,
// make bench-pmf): the sparse composition behind every DAG solve's
// final EvaluateStageIDAG, and the warm-tier bytes a grid-backend DAG
// instance leaves in the solve cache.

// benchDAGInstance draws one instance of the DAG service shape: the
// BENCH_CACHE family at eight applications and 50 pulses with every
// mean jittered by up to +-20%, a three-layer random DAG at edge
// density 0.5, and a deadline at a seeded 0.8-1.1 of the critical path
// of expected times on four type-3 processors, so phi_1 lands inside
// (0, 1).
func benchDAGInstance(tb testing.TB, seed uint64) (*sysmodel.System, sysmodel.Batch, []sysmodel.Edge, float64) {
	tb.Helper()
	const apps = 8
	r := rng.New(seed)
	inst := benchCacheInstance(apps, 50)
	for i := range inst.Applications {
		for j := range inst.Applications[i].ExecTimes {
			e := &inst.Applications[i].ExecTimes[j]
			e.Mean = math.Round(e.Mean * (0.8 + 0.4*r.Float64()))
		}
	}
	sys, bat, _, err := config.Build(inst)
	if err != nil {
		tb.Fatal(err)
	}
	edges := experiments.LayeredEdges(seed, apps, 3, 0.5)
	finish := make([]float64, apps)
	cp := 0.0
	for i, a := range inst.Applications {
		total := float64(a.SerialIters + a.ParallelIters)
		est := a.ExecTimes[2].Mean * (float64(a.SerialIters)/total + float64(a.ParallelIters)/total/4) / 0.6875
		ready := 0.0
		for _, e := range edges {
			if e.To == i {
				ready = math.Max(ready, finish[e.From])
			}
		}
		finish[i] = ready + est
		cp = math.Max(cp, finish[i])
	}
	return sys, bat, edges, math.Round(cp * (0.8 + 0.3*r.Float64()))
}

// benchDAGAllocation is a fixed feasible allocation of the eight
// applications: two on T1, two on T2 and four on T3.
var benchDAGAllocation = sysmodel.Allocation{
	{Type: 0, Procs: 2}, {Type: 0, Procs: 2},
	{Type: 1, Procs: 4}, {Type: 1, Procs: 4},
	{Type: 2, Procs: 4}, {Type: 2, Procs: 4}, {Type: 2, Procs: 4}, {Type: 2, Procs: 4},
}

// benchDAGDists returns the completion PMFs of benchDAGInstance(seed
// 12) under benchDAGAllocation, with the instance's edges.
func benchDAGDists(b *testing.B) ([]pmf.PMF, []sysmodel.Edge) {
	sys, bat, edges, _ := benchDAGInstance(b, 12)
	dists := make([]pmf.PMF, len(bat))
	for i, as := range benchDAGAllocation {
		dists[i] = bat[i].CompletionPMF(as.Type, as.Procs, sys.Types[as.Type].Avail)
	}
	return dists, edges
}

// BenchmarkComposeDAG measures the sparse DAG composition of one
// DAG-service-shaped instance: the ~1800-pulse ready times of the third
// layer are added to 100-pulse completion PMFs, and pmf.AddCompact
// bins their ~180k sums into at most DAGMaxPulses cells
// (BenchmarkAddCompact is that step alone).
func BenchmarkComposeDAG(b *testing.B) {
	dists, edges := benchDAGDists(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := sysmodel.ComposeDAG(dists, edges, sysmodel.DAGMaxPulses)
		if err != nil {
			b.Fatal(err)
		}
		composeSink = comp
	}
}

// composeSink keeps BenchmarkComposeDAG's result live.
var composeSink []pmf.PMF

// BenchmarkAddCompact measures the Add step of BenchmarkComposeDAG's
// third layer alone: each op adds the three ~1800-pulse ready times to
// their 100-pulse completion PMFs and compacts the sums to
// DAGMaxPulses, binned in one pass (binned, what ComposeDAG runs) or
// as the fold Add(ready, T).Compact(DAGMaxPulses) (fold).
func BenchmarkAddCompact(b *testing.B) {
	dists, edges := benchDAGDists(b)
	comp, err := sysmodel.ComposeDAG(dists, edges, sysmodel.DAGMaxPulses)
	if err != nil {
		b.Fatal(err)
	}
	preds := sysmodel.Preds(edges, len(dists))
	var ready, own []pmf.PMF
	for i := 5; i < len(dists); i++ { // layers [0,2), [2,5), [5,8)
		r := comp[preds[i][0]]
		for _, p := range preds[i][1:] {
			r = pmf.Max(r, comp[p]).Compact(sysmodel.DAGMaxPulses)
		}
		ready, own = append(ready, r), append(own, dists[i])
	}
	kernels := []struct {
		name string
		add  func(p, q pmf.PMF) pmf.PMF
	}{
		{"binned", func(p, q pmf.PMF) pmf.PMF { return pmf.AddCompact(p, q, sysmodel.DAGMaxPulses) }},
		{"fold", func(p, q pmf.PMF) pmf.PMF { return pmf.Add(p, q).Compact(sysmodel.DAGMaxPulses) }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := range ready {
					addSink = k.add(ready[i], own[i])
				}
			}
		})
	}
}

// addSink keeps BenchmarkAddCompact's result live.
var addSink pmf.PMF

// BenchmarkWarmGridTable builds the grid-backend evaluation table of
// one DAG-service-shaped instance into a fresh cache per iteration and
// reports the warm-tier bytes the instance leaves behind, as counted by
// the cache's LRU accounting (cache.Stats().Bytes).
func BenchmarkWarmGridTable(b *testing.B) {
	sys, bat, edges, deadline := benchDAGInstance(b, 12)
	var bytes int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cache.New(cache.Options{})
		prob := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Edges: edges,
			Backend: pmf.BackendGrid, Cache: c}
		if err := prob.PrecomputeContext(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		bytes = c.Stats().Bytes
	}
	b.ReportMetric(float64(bytes)/1024, "warm_KiB/instance")
}

// BenchmarkWarmSparseTable is BenchmarkWarmGridTable under the sparse
// backend: the warm-tier bytes one DAG-service-shaped instance leaves
// behind with its cells stored as packed PMFs.
func BenchmarkWarmSparseTable(b *testing.B) {
	sys, bat, edges, deadline := benchDAGInstance(b, 12)
	var bytes int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cache.New(cache.Options{})
		prob := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Edges: edges, Cache: c}
		if err := prob.PrecomputeContext(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		bytes = c.Stats().Bytes
	}
	b.ReportMetric(float64(bytes)/1024, "warm_KiB/instance")
}

// BenchmarkEvaluateDAG measures the final Stage-I evaluation of a DAG
// solve (ra.Problem.Evaluate) on the DAG service shape: cold composes
// benchDAGAllocation's completion PMFs along the edges against an
// empty cache and publishes the result to its evaluation tier (a
// miss, as the first job to end on an allocation pays), hit reads it
// back from a warm one through a precomputed Problem, as every service
// path evaluates. Both must report the same phi_1 bits.
func BenchmarkEvaluateDAG(b *testing.B) {
	sys, bat, edges, deadline := benchDAGInstance(b, 12)
	problem := func(c *cache.Cache) *ra.Problem {
		return &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Edges: edges, Cache: c}
	}
	ref, err := robustness.EvaluateStageIDAG(sys, bat, edges, benchDAGAllocation, deadline)
	if err != nil {
		b.Fatal(err)
	}
	check := func(b *testing.B, st *robustness.StageIResult, err error) {
		if err != nil {
			b.Fatal(err)
		}
		if math.Float64bits(st.Phi1) != math.Float64bits(ref.Phi1) {
			b.Fatalf("phi1 %x, reference %x", st.Phi1, ref.Phi1)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := problem(cache.New(cache.Options{})).Evaluate(benchDAGAllocation)
			check(b, st, err)
		}
	})
	b.Run("hit", func(b *testing.B) {
		prob := problem(cache.New(cache.Options{}))
		if err := prob.PrecomputeContext(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		st, err := prob.Evaluate(benchDAGAllocation)
		check(b, st, err)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := prob.Evaluate(benchDAGAllocation)
			check(b, st, err)
		}
	})
}

// BenchmarkTabuDAG measures one tabu walk (default seed, one worker)
// on the DAG service shape, where every neighbor it scores is a
// sparse composition along the edges; the evaluation table is built
// before the timer starts. Every walk must return the same allocation,
// and phi1 reports its DAG phi_1.
func BenchmarkTabuDAG(b *testing.B) {
	sys, bat, edges, deadline := benchDAGInstance(b, 11)
	prob := &ra.Problem{Sys: sys, Batch: bat, Deadline: deadline, Edges: edges}
	if err := prob.PrecomputeContext(context.Background(), 1); err != nil {
		b.Fatal(err)
	}
	h := &ra.TabuSearch{Workers: 1}
	var first sysmodel.Allocation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, err := h.AllocateContext(context.Background(), prob)
		if err != nil {
			b.Fatal(err)
		}
		if first == nil {
			first = al
		} else if al.String() != first.String() {
			b.Fatalf("walk %d returned %s, walk 0 %s", i, al, first)
		}
	}
	b.StopTimer()
	phi, err := prob.Objective(first)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(phi, "phi1")
}
