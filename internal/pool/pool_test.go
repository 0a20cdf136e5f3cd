package pool

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// Every task runs exactly once, and a worker index never runs two
// tasks at once, so per-worker scratch indexed by w is never shared.
func TestForEachRunsEachTaskOnceOnItsOwnWorker(t *testing.T) {
	const n = 1000
	for _, workers := range []int{-1, 0, 1, 3, 2 * n} {
		runs := make([]atomic.Int32, n)
		busy := make([]atomic.Bool, max(workers, runtime.NumCPU()))
		err := ForEach(context.Background(), workers, n, func(w, i int) {
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("workers=%d: worker %d runs two tasks at once", workers, w)
				return
			}
			runs[i].Add(1)
			busy[w].Store(false)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

// A cancelled context stops the claiming: at most one task per worker
// runs after the cancel, and ForEach reports the cancellation.
func TestForEachStopsClaimingWhenCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, workers, 1000, func(_, _ int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got < 10 || got > int32(10+workers) {
			t.Errorf("workers=%d: %d tasks ran, want 10 to %d", workers, got, 10+workers)
		}
	}
}
