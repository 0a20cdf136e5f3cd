package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"cdsf/internal/api"
	"cdsf/internal/config"
)

// This file is the request generator: the only source of the bytes the
// benchmark sends. Every stream is a pure function of (workload, seed,
// client), so the same seed reproduces the same requests byte for byte
// and a different seed gives different ones (workload_test.go pins
// both through the stream digest).

// request is one generated job submission.
type request struct {
	client, index int
	route         string // "/v1/solve" or "/v1/scenario"
	body          []byte
	// class names the request's latency band (fresh, repeat, cold,
	// warm, ...); the mixes are fixed so that p50 and p90 each fall
	// inside one band.
	class string
	// paperSolve and paperScenario select the paper-specific result
	// checks: an exhaustive solve of the embedded paper instance must
	// return phi1 = 0.745 with T0x2, T0x2, T1x8, and scenario 4 must
	// report rho1 = 0.745.
	paperSolve, paperScenario bool
	// counts is the processor count per type of the request's instance,
	// for the allocation feasibility check.
	counts []int
	// backend is the request's pmf_backend ("" is cdsfd's sparse
	// default).
	backend string
}

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// follow selects the SSE client loop (GET /v1/jobs/{id}/events?
	// follow=1 until the terminal event); otherwise clients poll
	// GET /v1/jobs/{id}.
	follow bool
	// replayN is how many requests, in stream order, are replayed
	// in-process after the window: enough to check byte identity on
	// every job class while keeping a run inside its time budget.
	replayN int
	// block returns the next block of requests of a client's stream.
	// Blocks fix the mix exactly: every block holds the same classes in
	// a seeded order.
	block func(s *stream) []*request
	// warmup returns the requests sent once per launch before the timed
	// window (they count towards setup_s).
	warmup func(s *stream) []*request
}

var workloads = []*workload{
	{
		name:    "paper-service",
		why:     "paper instance: fresh exhaustive solves plus byte-identical repeats; admission, WAL fsync, HTTP/JSON and cache keying dominate",
		replayN: 200,
		block:   paperServiceBlock,
		warmup:  paperServiceWarmup,
	},
	{
		name:    "synth-stage1",
		why:     "fresh 3-type synthetic instances solved cold then under heuristic and deadline variants on both PMF backends; table build, hashing and search dominate",
		follow:  true,
		replayN: 40,
		block:   synthBlock,
		warmup:  synthWarmup,
	},
	{
		name:    "paper-scenario",
		why:     "the paper's own experiment: scenario 4 over the four availability cases with 60 reps; Stage-II Monte Carlo dominates",
		follow:  true,
		replayN: 4,
		block:   scenarioBlock,
		warmup:  scenarioWarmup,
	},
	{
		name:    "dag-service",
		why:     "layered DAG batches under heft, dag-greedy, greedy and twophase on both backends plus low-rep scenarios; the only workload composing PMFs along edges",
		follow:  true,
		replayN: 6,
		block:   dagBlock,
		warmup:  dagWarmup,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rng is splitmix64: small and fixed forever, so a seed names the same
// request stream across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64, domain string, client int) *rng {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d", domain, seed, client)))
	return &rng{s: binary.LittleEndian.Uint64(h[:8])}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// jobSeed returns a nonzero job seed (zero means "default" on the wire).
func (r *rng) jobSeed() uint64 {
	for {
		if v := r.next() >> 1; v != 0 {
			return v
		}
	}
}

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// stream is one client's request sequence.
type stream struct {
	w       *workload
	client  int
	rng     *rng
	next    int
	pending []*request
	// fresh holds the bodies of this client's latest fresh requests,
	// the pool byte-identical repeats are drawn from. A client's earlier
	// requests are finished before it sends the next one, and the pool
	// (repeatPool per client) stays far inside the result tier's
	// 4096-entry LRU, so every repeat is answered from the cache.
	fresh [][]byte
}

func newStream(w *workload, seed uint64, client int) *stream {
	return &stream{w: w, client: client, rng: newRNG(seed, w.name, client)}
}

// take returns the client's next request.
func (s *stream) take() *request {
	for len(s.pending) == 0 {
		s.pending = s.w.block(s)
	}
	rq := s.pending[0]
	s.pending = s.pending[1:]
	rq.client, rq.index = s.client, s.next
	s.next++
	return rq
}

// warmupRequests returns the warm-up requests of one launch. They come
// from a stream of their own, so they never share a cache key with a
// timed request.
func warmupRequests(w *workload, seed uint64) []*request {
	s := &stream{w: w, client: -1, rng: newRNG(seed, w.name+"/warmup", 0)}
	reqs := w.warmup(s)
	for i, rq := range reqs {
		rq.client, rq.index = -1, i
	}
	return reqs
}

// digest hashes the first n requests of every client stream plus the
// warm-up requests: the fingerprint of the inputs a run sends.
func digest(w *workload, seed uint64, clients, n int) string {
	h := sha256.New()
	write := func(rq *request) {
		fmt.Fprintf(h, "%d/%d %s %d\n", rq.client, rq.index, rq.route, len(rq.body))
		h.Write(rq.body)
	}
	for _, rq := range warmupRequests(w, seed) {
		write(rq)
	}
	for c := 0; c < clients; c++ {
		s := newStream(w, seed, c)
		for i := 0; i < n; i++ {
			write(s.take())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// paperCounts are the processor counts of the embedded paper system
// (Table I: 4 of type 1, 8 of type 2).
var paperCounts = []int{4, 8}

// repeatPool is how many of a client's latest fresh requests its
// repeats are drawn from.
const repeatPool = 64

func paperSolve(seed uint64) *request {
	return &request{route: "/v1/solve", body: mustJSON(api.SolveRequest{Seed: seed}),
		class: "fresh", paperSolve: true, counts: paperCounts}
}

// paperServiceBlock is ten requests: three fresh-seed exhaustive solves
// of the paper instance (a result-tier miss that hits the warm table)
// and seven byte-identical repeats of earlier fresh requests (answered
// from the result tier at admission). With repeats the faster band,
// p50 lies at the 71st percentile of repeats and p90 at the 67th
// percentile of fresh solves.
func paperServiceBlock(s *stream) []*request {
	kinds := []bool{true, true, true, false, false, false, false, false, false, false}
	s.rng.shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	if len(s.fresh) == 0 && !kinds[0] {
		for i, k := range kinds {
			if k {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
	}
	out := make([]*request, 0, len(kinds))
	for _, fresh := range kinds {
		if fresh {
			rq := paperSolve(s.rng.jobSeed())
			if len(s.fresh) == repeatPool {
				s.fresh = s.fresh[1:]
			}
			s.fresh = append(s.fresh, rq.body)
			out = append(out, rq)
			continue
		}
		body := s.fresh[s.rng.intn(len(s.fresh))]
		out = append(out, &request{route: "/v1/solve", body: body, class: "repeat",
			paperSolve: true, counts: paperCounts})
	}
	return out
}

// paperServiceWarmup fills the paper instance's warm table, so every
// timed fresh solve hits it.
func paperServiceWarmup(s *stream) []*request {
	return []*request{paperSolve(s.rng.jobSeed()), paperSolve(s.rng.jobSeed())}
}

// synthTypes are the BENCH_CACHE family's three processor types.
func synthTypes() []config.ProcTypeSpec {
	return []config.ProcTypeSpec{
		{Name: "T1", Count: 4, Availability: []config.PulseSpec{
			{Value: 75, Probability: 50}, {Value: 100, Probability: 50}}},
		{Name: "T2", Count: 8, Availability: []config.PulseSpec{
			{Value: 25, Probability: 25}, {Value: 50, Probability: 25}, {Value: 100, Probability: 50}}},
		{Name: "T3", Count: 16, Availability: []config.PulseSpec{
			{Value: 50, Probability: 50}, {Value: 100, Probability: 50}}},
	}
}

func typeCounts(inst *config.Instance) []int {
	out := make([]int, len(inst.Types))
	for j, t := range inst.Types {
		out[j] = t.Count
	}
	return out
}

// synthInstance draws one instance of the BENCH_CACHE family: iteration
// counts and mean times grow with the application index as in
// bench_test.go's benchCacheInstance, and the seed jitters every mean
// by up to +-20%.
func synthInstance(r *rng, name string, apps, pulses int, deadline float64) *config.Instance {
	inst := &config.Instance{Name: name, Deadline: deadline, Pulses: pulses, Types: synthTypes()}
	jitter := func(v float64) float64 { return math.Round(v * (0.8 + 0.4*r.float())) }
	for i := 0; i < apps; i++ {
		fi := float64(i)
		inst.Applications = append(inst.Applications, config.ApplicationSpec{
			Name:          fmt.Sprintf("App %d", i+1),
			SerialIters:   200 + 50*i,
			ParallelIters: 1024 + 512*i,
			ExecTimes: []config.ExecTimeSpec{
				{Mean: jitter(1500 + 300*fi)},
				{Mean: jitter(3000 + 500*fi)},
				{Mean: jitter(2000 + 400*fi)},
			},
		})
	}
	return inst
}

const (
	synthApps   = 5
	synthPulses = 1000
)

// synthVariant is one solve of a synth group: a heuristic at a deadline
// factor.
type synthVariant struct {
	heuristic string
	factor    float64
	class     string
}

// synthGroup is the fixed job mix per instance: one cold solve that
// builds the evaluation table, seven cheap heuristic variants at the
// same deadline (warm-table hits on both backends) or another one
// (warm hits on sparse; misses on grid, whose lattice step follows the
// deadline), and two exhaustive solves, the slowest band. p50 falls in
// the variant band (at its 57th percentile) and p90 in the exhaustive
// one (at its 50th).
var synthGroup = []synthVariant{
	{"greedy", 1, "cold"},
	{"twophase", 1, "variant"},
	{"minmin", 1, "variant"},
	{"greedy", 0.9, "variant"},
	{"twophase", 1.1, "variant"},
	{"minmin", 0.9, "variant"},
	{"greedy", 1.2, "variant"},
	{"twophase", 0.8, "variant"},
	{"exhaustive", 1, "exhaustive"},
	{"exhaustive", 1.1, "exhaustive"},
}

func synthBlock(s *stream) []*request {
	deadline := math.Round(8500 + 1000*s.rng.float())
	inst := synthInstance(s.rng, fmt.Sprintf("synth-%d-%d", s.client, s.next), synthApps, synthPulses, deadline)
	backend := ""
	if s.rng.intn(2) == 1 {
		backend = "grid"
	}
	out := make([]*request, 0, len(synthGroup))
	for _, v := range synthGroup {
		req := api.SolveRequest{Instance: inst, Heuristic: v.heuristic, PMFBackend: backend}
		if v.factor != 1 {
			req.Deadline = math.Round(deadline * v.factor)
		}
		out = append(out, &request{route: "/v1/solve", body: mustJSON(req),
			class: v.class, counts: typeCounts(inst), backend: backend})
	}
	return out
}

func synthWarmup(s *stream) []*request {
	inst := synthInstance(s.rng, "synth-warmup", synthApps, synthPulses, 9000)
	return []*request{{route: "/v1/solve", body: mustJSON(api.SolveRequest{Instance: inst, Heuristic: "greedy"}),
		class: "cold", counts: typeCounts(inst)}}
}

func paperScenario(seed uint64, reps int) *request {
	return &request{route: "/v1/scenario", body: mustJSON(api.ScenarioRequest{Scenario: 4, Seed: seed, Reps: reps}),
		class: "scenario", paperScenario: true, counts: paperCounts}
}

// scenarioBlock is one fresh-seed run of the paper's scenario 4 (robust
// IM + robust RAS) at the paper's 60 reps over its four cases.
func scenarioBlock(s *stream) []*request {
	return []*request{paperScenario(s.rng.jobSeed(), 0)}
}

func scenarioWarmup(s *stream) []*request {
	return []*request{paperScenario(s.rng.jobSeed(), 20)}
}

const (
	dagApps    = 8
	dagLayers  = 3
	dagDensity = 0.5
	dagPulses  = 50
)

// layeredEdges draws a layered DAG: apps split into consecutive layers
// of near-equal size, each pair in adjacent layers linked with
// probability density, and every non-source app kept reachable through
// at least one predecessor. It is the shape of experiments.LayeredEdges
// drawn from the benchmark's own rng, so a program change can never
// change the workload.
func layeredEdges(r *rng, n, layers int, density float64) []config.EdgeSpec {
	bounds := make([]int, layers+1)
	for l := 0; l <= layers; l++ {
		bounds[l] = l * n / layers
	}
	var out []config.EdgeSpec
	for l := 0; l+1 < layers; l++ {
		for v := bounds[l+1]; v < bounds[l+2]; v++ {
			linked := false
			for u := bounds[l]; u < bounds[l+1]; u++ {
				if r.float() < density {
					out = append(out, config.EdgeSpec{From: u, To: v})
					linked = true
				}
			}
			if !linked {
				out = append(out, config.EdgeSpec{From: bounds[l] + r.intn(bounds[l+1]-bounds[l]), To: v})
			}
		}
	}
	return out
}

// dagInstance draws a synthetic DAG batch whose deadline is the
// critical path of per-app expected times on a mid-size group, scaled
// by a seeded factor, so phi1 lands inside (0, 1).
func dagInstance(r *rng, name string) *config.Instance {
	inst := synthInstance(r, name, dagApps, dagPulses, 1)
	inst.Edges = layeredEdges(r, dagApps, dagLayers, dagDensity)
	// Expected completion of app i on 4 processors of type 2 (8
	// processors, mean availability 0.6875).
	est := make([]float64, dagApps)
	for i, a := range inst.Applications {
		total := float64(a.SerialIters + a.ParallelIters)
		s, p := float64(a.SerialIters)/total, float64(a.ParallelIters)/total
		est[i] = a.ExecTimes[2].Mean * (s + p/4) / 0.6875
	}
	finish := make([]float64, dagApps)
	cp := 0.0
	for i := range finish { // edges only go from lower to higher layers
		ready := 0.0
		for _, e := range inst.Edges {
			if e.To == i && finish[e.From] > ready {
				ready = finish[e.From]
			}
		}
		finish[i] = ready + est[i]
		cp = math.Max(cp, finish[i])
	}
	inst.Deadline = math.Round(cp * (0.8 + 0.3*r.float()))
	return inst
}

// dagGroup is the fixed job mix per DAG instance: the four DAG-capable
// list and greedy heuristics, each on both backends, plus two
// scenarios at dagScenarioReps so Stage-II release gating runs too.
// The sparse DAG composition behind every Stage-I evaluation costs the
// same for any heuristic, so the solves share one band and the
// scenarios (a solve plus Monte Carlo) sit above it: p50 falls at the
// 62nd percentile of solves and p90 at the 50th of scenarios.
var dagGroup = []struct {
	heuristic, backend string
}{
	{"heft", ""}, {"dag-greedy", "grid"}, {"greedy", ""}, {"twophase", "grid"},
	{"heft", "grid"}, {"dag-greedy", ""}, {"greedy", "grid"}, {"twophase", ""},
}

const (
	dagScenarios    = 2
	dagScenarioReps = 20
)

func dagBlock(s *stream) []*request {
	inst := dagInstance(s.rng, fmt.Sprintf("dag-%d-%d", s.client, s.next))
	counts := typeCounts(inst)
	var out []*request
	for _, g := range dagGroup {
		out = append(out, &request{route: "/v1/solve",
			body:  mustJSON(api.SolveRequest{Instance: inst, Heuristic: g.heuristic, PMFBackend: g.backend}),
			class: "solve", counts: counts, backend: g.backend})
	}
	for k := 0; k < dagScenarios; k++ {
		out = append(out, &request{route: "/v1/scenario",
			body:  mustJSON(api.ScenarioRequest{Instance: inst, IM: "heft", Reps: dagScenarioReps, Seed: s.rng.jobSeed()}),
			class: "scenario", counts: counts})
	}
	s.rng.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func dagWarmup(s *stream) []*request {
	inst := dagInstance(s.rng, "dag-warmup")
	return []*request{{route: "/v1/solve", body: mustJSON(api.SolveRequest{Instance: inst, Heuristic: "heft"}),
		class: "solve", counts: typeCounts(inst)}}
}
