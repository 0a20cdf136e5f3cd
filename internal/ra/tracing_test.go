package ra

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cdsf/internal/tracing"
)

// Stage-I search engines emit wall-clock spans under "stage1" lanes —
// the precompute, each exhaustive partition, the tabu walk — without
// perturbing the allocation.
func TestStageISpans(t *testing.T) {
	for _, name := range []string{"exhaustive", "tabu"} {
		t.Run(name, func(t *testing.T) {
			h, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plainAl, err := h.AllocateContext(context.Background(), smallProblem())
			if err != nil {
				t.Fatal(err)
			}

			p := smallProblem()
			p.Obs.Tracer = tracing.New()
			al, err := h.AllocateContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(al, plainAl) {
				t.Errorf("tracing changed the allocation: %v vs %v", al, plainAl)
			}

			spans := p.Obs.Tracer.Spans()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			var sawEngine bool
			for _, s := range spans {
				if s.Clock != tracing.Wall {
					t.Fatalf("stage-I span on sim clock: %+v", s)
				}
				if s.Cat != "stage1" || !strings.HasPrefix(s.Lane, "stage1") {
					t.Fatalf("span outside stage1: %+v", s)
				}
				if strings.HasPrefix(s.Lane, "stage1/") {
					sawEngine = true
				}
			}
			if !sawEngine {
				t.Errorf("%s emitted no engine lanes (only %d top-level spans)", name, len(spans))
			}
		})
	}
}

func TestPrecomputeSpan(t *testing.T) {
	p := smallProblem()
	p.Obs.Tracer = tracing.New()
	if err := p.PrecomputeContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	spans := p.Obs.Tracer.Spans()
	if len(spans) != 1 || spans[0].Lane != "stage1" || spans[0].Name != "precompute" {
		t.Errorf("precompute spans = %+v", spans)
	}
}
