package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"cdsf/internal/api"
)

// This file holds the result checks. A failed check never aborts a run:
// it marks the outcome, which counts towards error_rate and makes the
// run's "correct" false.

// paperPhi1 is the paper's robust-IM Stage-I robustness (74.5%), and
// paperAlloc the allocation achieving it (Table IV: applications 1 and
// 2 on 2 processors of type 1 each, application 3 on 8 of type 2).
const paperPhi1 = 0.745

var paperAlloc = []api.Assignment{{Type: 0, Procs: 2}, {Type: 0, Procs: 2}, {Type: 1, Procs: 8}}

// checkResult validates one finished job's result document against its
// request and returns a description of the first violation ("" if
// none).
func checkResult(rq *request, doc []byte) string {
	switch rq.route {
	case "/v1/solve":
		var r api.SolveResult
		if err := json.Unmarshal(doc, &r); err != nil {
			return fmt.Sprintf("result does not parse: %v", err)
		}
		if p := checkStageI(rq, r.Allocation, r.Phi1, r.PerApp); p != "" {
			return p
		}
		if rq.paperSolve {
			if math.Abs(r.Phi1-paperPhi1) > 1e-9 {
				return fmt.Sprintf("paper exhaustive phi1 = %.12g, want %.3f", r.Phi1, paperPhi1)
			}
			if !equalAlloc(r.Allocation, paperAlloc) {
				return fmt.Sprintf("paper exhaustive allocation %v, want %v", r.Allocation, paperAlloc)
			}
		}
	case "/v1/scenario":
		var r api.ScenarioResult
		if err := json.Unmarshal(doc, &r); err != nil {
			return fmt.Sprintf("result does not parse: %v", err)
		}
		if p := checkStageI(rq, r.StageI.Allocation, r.StageI.Phi1, r.StageI.PerApp); p != "" {
			return p
		}
		for _, c := range r.Cases {
			for i, outs := range c.PerApp {
				for _, o := range outs {
					if !(o.PrMeet >= 0 && o.PrMeet <= 1) {
						return fmt.Sprintf("case %q app %d %s: prMeet %v outside [0, 1]", c.Case, i, o.Technique, o.PrMeet)
					}
				}
			}
		}
		if rq.paperScenario && math.Abs(r.Rho1-paperPhi1) > 1e-9 {
			return fmt.Sprintf("paper scenario rho1 = %.12g, want %.3f", r.Rho1, paperPhi1)
		}
	default:
		return "unexpected route " + rq.route
	}
	return ""
}

// checkStageI checks the probabilities and the allocation's feasibility
// for the request's instance: one group per application, each of at
// least one processor of an existing type, and no type oversubscribed.
func checkStageI(rq *request, alloc []api.Assignment, phi1 float64, perApp []float64) string {
	if !(phi1 >= 0 && phi1 <= 1) {
		return fmt.Sprintf("phi1 %v outside [0, 1]", phi1)
	}
	for i, p := range perApp {
		if !(p >= 0 && p <= 1) {
			return fmt.Sprintf("perApp[%d] = %v outside [0, 1]", i, p)
		}
	}
	if len(alloc) != len(perApp) || len(alloc) == 0 {
		return fmt.Sprintf("allocation has %d groups for %d applications", len(alloc), len(perApp))
	}
	used := make([]int, len(rq.counts))
	for i, a := range alloc {
		if a.Type < 0 || a.Type >= len(rq.counts) || a.Procs < 1 {
			return fmt.Sprintf("allocation[%d] = %+v is not a group of an existing type", i, a)
		}
		used[a.Type] += a.Procs
	}
	for j, n := range used {
		if n > rq.counts[j] {
			return fmt.Sprintf("allocation uses %d processors of type %d, which has %d", n, j, rq.counts[j])
		}
	}
	return ""
}

func equalAlloc(a, b []api.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// repeatChecker remembers each distinct request body's first answer;
// a later answer to the same bytes must be byte-identical.
type repeatChecker map[string][]byte

func (rc repeatChecker) check(rq *request, doc []byte) string {
	key := rq.route + "\x00" + string(rq.body)
	first, ok := rc[key]
	if !ok {
		rc[key] = doc
		return ""
	}
	if !bytes.Equal(first, doc) {
		return "repeat answered with different bytes than the first answer"
	}
	return ""
}
