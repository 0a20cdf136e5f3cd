package sysmodel

import (
	"errors"
	"math"
	"testing"

	"cdsf/internal/pmf"
)

func TestValidateEdgesPaths(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []Edge
		n     int
		path  string // "" means valid
	}{
		{"empty", nil, 3, ""},
		{"chain", []Edge{{0, 1}, {1, 2}}, 3, ""},
		{"duplicate edges ok", []Edge{{0, 1}, {0, 1}}, 2, ""},
		{"from out of range", []Edge{{0, 1}, {5, 2}}, 3, "edges[1].from"},
		{"from negative", []Edge{{-1, 1}}, 3, "edges[0].from"},
		{"to out of range", []Edge{{0, 3}}, 3, "edges[0].to"},
		{"self edge", []Edge{{0, 1}, {2, 2}}, 3, "edges[1]"},
		{"two cycle", []Edge{{0, 1}, {1, 0}}, 2, "edges"},
		{"long cycle", []Edge{{0, 1}, {1, 2}, {2, 0}}, 3, "edges"},
	} {
		err := ValidateEdges(tc.edges, tc.n)
		if tc.path == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		var ee *EdgeError
		if !errors.As(err, &ee) {
			t.Errorf("%s: error %v is not an *EdgeError", tc.name, err)
			continue
		}
		if ee.Path != tc.path {
			t.Errorf("%s: path %q, want %q", tc.name, ee.Path, tc.path)
		}
		if ee.Msg == "" || ee.Error() == ee.Msg {
			t.Errorf("%s: Error() %q should prefix the path", tc.name, ee.Error())
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	// Kahn with smallest-index-first: ready = {2, 3}, emit 2, which
	// frees 0; then 0, 3, 1.
	order, err := TopoOrder([]Edge{{2, 0}, {3, 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	// No edges: identity order.
	order, err = TopoOrder(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("edge-free order %v is not the identity", order)
		}
	}
}

func TestPredsSuccsSinks(t *testing.T) {
	edges := []Edge{{2, 0}, {1, 0}, {2, 0}, {1, 3}}
	preds := Preds(edges, 4)
	if len(preds[0]) != 2 || preds[0][0] != 1 || preds[0][1] != 2 {
		t.Errorf("preds[0] = %v, want sorted deduped [1 2]", preds[0])
	}
	if len(preds[1]) != 0 || len(preds[2]) != 0 {
		t.Errorf("sources gained predecessors: %v", preds)
	}
	succs := Succs(edges, 4)
	if len(succs[2]) != 2 {
		t.Errorf("succs[2] = %v, want duplicates preserved", succs[2])
	}
	sinks := Sinks(edges, 4)
	if len(sinks) != 2 || sinks[0] != 0 || sinks[1] != 3 {
		t.Errorf("sinks %v, want [0 3]", sinks)
	}
	all := Sinks(nil, 3)
	if len(all) != 3 {
		t.Errorf("edge-free sinks %v, want every application", all)
	}
}

// TestComposeDAGDeterministic checks the PERT recurrence on point
// distributions, where max and + are exact arithmetic.
func TestComposeDAGDeterministic(t *testing.T) {
	dists := []pmf.PMF{pmf.Point(2), pmf.Point(5), pmf.Point(3)}
	out, err := ComposeDAG(dists, []Edge{{0, 2}, {1, 2}}, DAGMaxPulses)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[2].Mean(); got != 8 {
		t.Errorf("C2 = %v, want max(2,5)+3 = 8", got)
	}
	if out[0].Mean() != 2 || out[1].Mean() != 5 {
		t.Errorf("source PMFs changed: %v, %v", out[0].Mean(), out[1].Mean())
	}
}

// TestComposeDAGNoEdgesIdentity pins the degeneration the API depends
// on: without edges the composition returns the inputs untouched.
func TestComposeDAGNoEdgesIdentity(t *testing.T) {
	dists := []pmf.PMF{pmf.Point(1), pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 0.5}, {Value: 2, Prob: 0.5}})}
	out, err := ComposeDAG(dists, nil, DAGMaxPulses)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dists {
		if out[i].Len() != dists[i].Len() || out[i].Mean() != dists[i].Mean() {
			t.Errorf("app %d: composition altered an edge-free PMF", i)
		}
	}
}

// TestComposeDAGMatchesEnumeration compares the composed fork-join
// distribution against brute-force enumeration of every outcome. The
// branches share no ancestors, so the PERT independence approximation
// is exact here.
func TestComposeDAGMatchesEnumeration(t *testing.T) {
	t0 := pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 0.3}, {Value: 4, Prob: 0.7}})
	t1 := pmf.MustNew([]pmf.Pulse{{Value: 2, Prob: 0.6}, {Value: 3, Prob: 0.4}})
	t2 := pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 0.5}, {Value: 2, Prob: 0.5}})
	out, err := ComposeDAG([]pmf.PMF{t0, t1, t2}, []Edge{{0, 2}, {1, 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate C2 = max(T0, T1) + T2 over the 8 outcomes.
	cdf := func(x float64) float64 {
		var pr float64
		for _, a := range t0.Pulses() {
			for _, b := range t1.Pulses() {
				for _, c := range t2.Pulses() {
					if math.Max(a.Value, b.Value)+c.Value <= x {
						pr += a.Prob * b.Prob * c.Prob
					}
				}
			}
		}
		return pr
	}
	for _, x := range []float64{2.5, 3, 4, 4.5, 5, 6, 7} {
		if got, want := out[2].PrLE(x), cdf(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Pr(C2 <= %v) = %v, want %v", x, got, want)
		}
	}
}

// TestComposeDAGGridAgreesSparse runs the same fork-join through both
// backends on lattice-aligned pulses, where the grid composition is
// exact and must agree with the sparse one.
func TestComposeDAGGridAgreesSparse(t *testing.T) {
	const step = 0.5
	dists := []pmf.PMF{
		pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 0.3}, {Value: 4, Prob: 0.7}}),
		pmf.MustNew([]pmf.Pulse{{Value: 2, Prob: 0.6}, {Value: 3.5, Prob: 0.4}}),
		pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 0.5}, {Value: 2.5, Prob: 0.5}}),
	}
	edges := []Edge{{0, 2}, {1, 2}}
	sparse, err := ComposeDAG(dists, edges, DAGMaxPulses)
	if err != nil {
		t.Fatal(err)
	}
	grids := make([]*pmf.Grid, len(dists))
	for i, d := range dists {
		grids[i] = d.ToGrid(step)
	}
	composed, err := ComposeDAGGrid(grids, edges)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseGrids(composed)
	for i := range dists {
		for _, x := range []float64{2, 3, 4, 5, 6, 7} {
			if got, want := composed[i].PrLE(x), sparse[i].PrLE(x); math.Abs(got-want) > 1e-12 {
				t.Errorf("app %d: grid Pr(C <= %v) = %v, sparse %v", i, x, got, want)
			}
		}
	}
}

// TestComposeDAGCompaction bounds intermediate supports: a chain of
// wide PMFs composed with a tiny maxPulses stays within the bound and
// still carries total probability one.
func TestComposeDAGCompaction(t *testing.T) {
	wide := make([]pmf.Pulse, 64)
	for i := range wide {
		wide[i] = pmf.Pulse{Value: 1 + float64(i)*0.25, Prob: 1.0 / 64}
	}
	p := pmf.MustNew(wide)
	dists := []pmf.PMF{p, p, p, p}
	out, err := ComposeDAG(dists, []Edge{{0, 1}, {1, 2}, {2, 3}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out[1:] {
		if o.Len() > 16 {
			t.Errorf("composed app %d has %d pulses, want <= 16", i+1, o.Len())
		}
		if err := o.Validate(); err != nil {
			t.Errorf("composed app %d invalid: %v", i+1, err)
		}
	}
	if out[3].Mean() <= out[1].Mean() {
		t.Errorf("chain means not increasing: %v then %v", out[1].Mean(), out[3].Mean())
	}
}

// refAcyclic is an independent DFS cycle check used to cross-validate
// the Kahn-based validator under fuzzing.
func refAcyclic(edges []Edge, n int) bool {
	succs := Succs(edges, n)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	var visit func(int) bool
	visit = func(u int) bool {
		color[u] = gray
		for _, v := range succs[u] {
			if color[v] == gray {
				return false
			}
			if color[v] == white && !visit(v) {
				return false
			}
		}
		color[u] = black
		return true
	}
	for i := 0; i < n; i++ {
		if color[i] == white && !visit(i) {
			return false
		}
	}
	return true
}

// FuzzDAGValidate feeds random edge sets to the validator: it must
// never panic, and it must accept exactly the in-range, self-edge-free
// sets that admit a topological order (cross-checked against an
// independent DFS cycle detector). Accepted sets must yield a TopoOrder
// that is a permutation respecting every edge.
func FuzzDAGValidate(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2})
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(2), []byte{0, 0})
	f.Add(uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		apps := int(n%16) + 1
		if len(raw) > 64 {
			raw = raw[:64]
		}
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			// Bias endpoints so out-of-range and negative indices occur.
			edges = append(edges, Edge{From: int(raw[i]) - 2, To: int(raw[i+1]) - 2})
		}
		err := ValidateEdges(edges, apps)

		inRange := true
		for _, e := range edges {
			if e.From < 0 || e.From >= apps || e.To < 0 || e.To >= apps || e.From == e.To {
				inRange = false
				break
			}
		}
		want := inRange && refAcyclic(edges, apps)
		if (err == nil) != want {
			t.Fatalf("ValidateEdges(%v, %d) = %v, reference says valid=%v", edges, apps, err, want)
		}
		if err != nil {
			var ee *EdgeError
			if !errors.As(err, &ee) || ee.Path == "" {
				t.Fatalf("rejection %v is not a pathed *EdgeError", err)
			}
			return
		}
		order, oerr := TopoOrder(edges, apps)
		if oerr != nil {
			t.Fatalf("validated set failed TopoOrder: %v", oerr)
		}
		pos := make([]int, apps)
		seen := make([]bool, apps)
		for idx, v := range order {
			if v < 0 || v >= apps || seen[v] {
				t.Fatalf("order %v is not a permutation of 0..%d", order, apps-1)
			}
			seen[v] = true
			pos[v] = idx
		}
		if len(order) != apps {
			t.Fatalf("order %v has %d elements, want %d", order, len(order), apps)
		}
		for _, e := range edges {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("order %v violates edge %v", order, e)
			}
		}
	})
}
