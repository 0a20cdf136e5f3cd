package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, replCfg(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A cancelled replication fan-out must drain its workers and report the
// partial progress, for both the sequential and the parallel path.
func TestRunManyContextCancelled(t *testing.T) {
	// reps < 4 exercises the sequential path, reps >= 4 the worker pool.
	for _, reps := range []int{2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunManyContext(ctx, replCfg(t), reps)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("reps=%d: err = %v, want context.Canceled", reps, err)
		}
		if !strings.Contains(err.Error(), "repetitions") {
			t.Errorf("reps=%d: error %q lacks partial-progress count", reps, err)
		}
	}
}

// RunManyContext with a background context must be bit-identical to the
// legacy RunMany on a seeded workload.
func TestRunManyContextMatchesRunMany(t *testing.T) {
	a, err := RunManyContext(context.Background(), replCfg(t), 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunManyContext(context.Background(), replCfg(t), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Makespans, b.Makespans) {
		t.Errorf("RunMany %v != RunManyContext %v", a.Makespans, b.Makespans)
	}
}

// A client may send any sweep count. A run whose sweeps times
// iterations overflows an int sizes its cost window from one sweep, so
// it runs until cancelled instead of panicking, on the windowed
// single-arm path and on the multi-arm path that sharedCostsFit keeps
// off the shared vector.
func TestHugeSweepCountRunsUntilCancelled(t *testing.T) {
	cfg := replCfg(t)
	cfg.TimeSteps = math.MaxInt / 2
	arms := []Arm{{Technique: cfg.Technique}, {Technique: tech(t, "STATIC")}}
	for _, arms := range [][]Arm{arms[:1], arms} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := RunArmsContext(ctx, cfg, arms, 1)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%d arms: err = %v, want context.DeadlineExceeded", len(arms), err)
		}
	}
}
