package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"cdsf/internal/api"
)

// TestDigestFollowsSeed pins the input contract: a seed names one
// request stream (the same digest every time) and another seed another
// stream.
func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := digest(w, 1, clients, 32), digest(w, 1, clients, 32)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if c := digest(w, 2, clients, 32); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a)
		}
	}
}

// TestPaperServiceMix checks the fixed mix: every block of ten holds
// three fresh solves and seven repeats, and each repeat is byte for
// byte one of the client's latest repeatPool fresh requests.
func TestPaperServiceMix(t *testing.T) {
	w, err := workloadByName("paper-service")
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(w, 7, 0)
	var fresh [][]byte
	for block := 0; block < 60; block++ {
		repeats := 0
		for i := 0; i < 10; i++ {
			rq := s.take()
			if rq.class != "repeat" {
				fresh = append(fresh, rq.body)
				continue
			}
			repeats++
			found := false
			for _, f := range fresh[max(0, len(fresh)-repeatPool):] {
				found = found || bytes.Equal(f, rq.body)
			}
			if !found {
				t.Fatalf("request %d repeats none of the latest %d fresh requests", rq.index, repeatPool)
			}
		}
		if repeats != 7 {
			t.Fatalf("block %d has %d repeats, want 7", block, repeats)
		}
	}
}

// TestCheckResult runs the result checks on the paper's answer and on
// documents that break each rule.
func TestCheckResult(t *testing.T) {
	rq := paperSolve(1)
	good := api.SolveResult{Heuristic: "exhaustive", Allocation: paperAlloc,
		Phi1: 0.745, PerApp: []float64{0.9, 0.9, 0.92}, ExpectedTimes: []float64{1, 2, 3}}
	doc := func(r api.SolveResult) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if p := checkResult(rq, doc(good)); p != "" {
		t.Fatalf("paper answer flagged: %s", p)
	}
	bad := map[string]func(r *api.SolveResult){
		"phi1":        func(r *api.SolveResult) { r.Phi1 = 0.26 },
		"probability": func(r *api.SolveResult) { r.PerApp[1] = 1.5 },
		"allocation": func(r *api.SolveResult) {
			r.Allocation = []api.Assignment{{Type: 0, Procs: 4}, {Type: 0, Procs: 2}, {Type: 1, Procs: 8}}
		},
		"type": func(r *api.SolveResult) {
			r.Allocation = []api.Assignment{{Type: 2, Procs: 1}, {Type: 0, Procs: 2}, {Type: 1, Procs: 8}}
		},
	}
	for name, mutate := range bad {
		r := good
		r.PerApp = append([]float64(nil), good.PerApp...)
		mutate(&r)
		if p := checkResult(rq, doc(r)); p == "" {
			t.Errorf("%s: broken result passed the checks", name)
		}
	}
	if p := checkResult(rq, []byte("{")); p == "" {
		t.Error("unparsable result passed the checks")
	}
	rc := repeatChecker{}
	if rc.check(rq, []byte("a")) != "" || rc.check(rq, []byte("a")) != "" {
		t.Error("identical repeat flagged")
	}
	if rc.check(rq, []byte("b")) == "" {
		t.Error("differing repeat passed")
	}
}
