package core

import (
	"context"
	"testing"

	"cdsf/internal/batch"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

func TestSimExecutorBasics(t *testing.T) {
	f := testFramework()
	af, _ := dls.ByName("AF")
	e := SimExecutor{Technique: af, Config: quickCfg(2)}
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	mk, err := e.Execute(context.Background(), f.Sys, f.Batch, alloc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mk <= 0 {
		t.Fatalf("makespan %v", mk)
	}
	// The batch makespan dominates each application's own mean.
	half := SimExecutor{Technique: af, Config: quickCfg(2),
		Avail: []pmf.PMF{f.Sys.Types[0].Avail.Scale(0.5), f.Sys.Types[1].Avail.Scale(0.5)}}
	mkHalf, err := half.Execute(context.Background(), f.Sys, f.Batch, alloc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mkHalf <= mk {
		t.Errorf("halved availability makespan %v <= reference %v", mkHalf, mk)
	}
}

func TestSimExecutorValidation(t *testing.T) {
	f := testFramework()
	af, _ := dls.ByName("AF")
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 4}}
	ctx := context.Background()
	if _, err := (SimExecutor{Config: quickCfg(1)}).Execute(ctx, f.Sys, f.Batch, alloc, 1); err == nil {
		t.Error("missing technique accepted")
	}
	bad := SimExecutor{Technique: af, Config: quickCfg(1), Avail: []pmf.PMF{pmf.Point(1)}}
	if _, err := bad.Execute(ctx, f.Sys, f.Batch, alloc, 1); err == nil {
		t.Error("mismatched Avail accepted")
	}
	over := sysmodel.Allocation{{Type: 0, Procs: 4}, {Type: 0, Procs: 4}}
	if _, err := (SimExecutor{Technique: af, Config: quickCfg(1)}).Execute(ctx, f.Sys, f.Batch, over, 1); err == nil {
		t.Error("infeasible allocation accepted")
	}
}

// TestSimExecutorWithResourceManager wires the Stage-II simulator into
// the batch substrate end-to-end.
func TestSimExecutorWithResourceManager(t *testing.T) {
	f := testFramework()
	af, _ := dls.ByName("AF")
	res, err := batch.RunContext(context.Background(), batch.Config{
		Sys: f.Sys,
		Arrivals: batch.ArrivalProcess{
			Interarrival: stats.NewExponential(1.0 / 400),
			Templates:    []sysmodel.Application{f.Batch[0], f.Batch[1]},
		},
		Heuristic: ra.Greedy{},
		Deadline:  f.Deadline,
		MaxBatch:  3,
		Jobs:      12,
		Executor:  SimExecutor{Technique: af, Config: quickCfg(5)},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) == 0 {
		t.Fatal("no batches executed")
	}
	for _, b := range res.Batches {
		if b.Makespan <= 0 {
			t.Errorf("batch %d makespan %v", b.Index, b.Makespan)
		}
	}
}
