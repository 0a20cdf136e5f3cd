package ra

import (
	"context"
	"errors"
	"testing"
)

// Every registered heuristic must refuse a pre-cancelled context with an
// error wrapping context.Canceled and no partial allocation.
func TestAllHeuristicsRefuseCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := smallProblem()
	for _, name := range Names() {
		h, _ := ByName(name)
		al, err := SolveContext(ctx, h, p)
		if err == nil {
			t.Errorf("%s: cancelled context accepted", name)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", name, err)
		}
		if al != nil {
			t.Errorf("%s: cancelled search returned a partial allocation %v", name, al)
		}
	}
}

// A cancelled precompute must abort with context.Canceled, and the
// problem must remain usable with a fresh context afterwards.
func TestPrecomputeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := smallProblem()
	if err := p.PrecomputeContext(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled precompute: err = %v", err)
	}
	if err := p.PrecomputeContext(context.Background(), 2); err != nil {
		t.Fatalf("fresh precompute after cancel failed: %v", err)
	}
}
