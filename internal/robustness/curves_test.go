package robustness

import (
	"math"
	"testing"

	"cdsf/internal/sysmodel"
)

func TestDeadlineSweepMonotone(t *testing.T) {
	sys, batch := testSystem(), testBatch()
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 0, Procs: 2}}
	deadlines := []float64{200, 500, 1000, 1500, 2000, 3000, 5000}
	curve, err := DeadlineSweep(sys, batch, alloc, deadlines)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, p := range curve {
		if p.Value < prev-1e-12 {
			t.Fatalf("phi1 decreased with a later deadline: %v", curve)
		}
		if p.Value < 0 || p.Value > 1 {
			t.Fatalf("phi1 %v out of [0,1]", p.Value)
		}
		prev = p.Value
	}
	if curve[len(curve)-1].Value != 1 {
		t.Errorf("phi1 at a deadline beyond all support = %v", curve[len(curve)-1].Value)
	}
}

func TestDeadlineSweepMatchesEvaluate(t *testing.T) {
	sys, batch := testSystem(), testBatch()
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 1, Procs: 2}}
	const d = 1200
	curve, err := DeadlineSweep(sys, batch, alloc, []float64{d})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateStageI(sys, batch, alloc, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(curve[0].Value-res.Phi1) > 1e-12 {
		t.Errorf("sweep phi1 %v != EvaluateStageI %v", curve[0].Value, res.Phi1)
	}
}

func TestAvailabilityScalingCurve(t *testing.T) {
	sys, batch := testSystem(), testBatch()
	alloc := sysmodel.Allocation{{Type: 0, Procs: 2}, {Type: 0, Procs: 2}}
	scales := []float64{1, 0.9, 0.8, 0.7, 0.6, 0.5}
	curve, err := AvailabilityScalingCurve(sys, batch, alloc, 2200, scales)
	if err != nil {
		t.Fatal(err)
	}
	// Decreases grow with shrinking scale; phi1 weakly decreases.
	for i := 1; i < len(curve); i++ {
		if curve[i].X <= curve[i-1].X {
			t.Errorf("decrease not increasing: %v", curve)
		}
		if curve[i].Value > curve[i-1].Value+1e-12 {
			t.Errorf("phi1 increased while availability shrank: %v", curve)
		}
	}
	if curve[0].X != 0 {
		t.Errorf("scale 1 decrease = %v", curve[0].X)
	}
	if _, err := AvailabilityScalingCurve(sys, batch, alloc, 2200, []float64{0}); err == nil {
		t.Error("zero scale accepted")
	}
}
