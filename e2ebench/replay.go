package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/cache"
	"cdsf/internal/config"
	"cdsf/internal/core"
	"cdsf/internal/events"
	"cdsf/internal/experiments"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/robustness"
	"cdsf/internal/store"
	"cdsf/internal/sysmodel"
)

// This file replays requests in-process through the same public calls
// internal/server/dispatch.go makes, with a span around each call. The
// replay is the benchmark's view into the layers: it records spans from
// outside the program, so it needs no instrumentation inside it, and it
// leaves ra.Problem.Metrics/Tracer and StageIIConfig.Metrics/Tracer/
// Progress unset. Its result documents must equal the service's byte
// for byte.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing. begin/end nest on one goroutine; add records a span
// measured elsewhere (the clients' spans).
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	job   string
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: t.job, Name: name, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// call runs fn inside a span.
func (t *tracer) call(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

func (t *tracer) add(job, name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// replayJob is one replayed request.
type replayJob struct {
	id   string
	rq   *request
	kind api.JobKind
	raw  []byte // the canonical request bytes the service journals
	doc  []byte // the result document
	key  string // the result-tier key
	hit  bool   // answered from the replay's result tier
	info *api.CacheInfo

	// Inputs of the probes run after the job (tracing only).
	prob     *problem
	alloc    sysmodel.Allocation
	deadline float64
	backend  pmf.Backend
	built    bool // the job built a Stage-I table
	// warmSparse marks a solve whose sparse table came fully warm from
	// the cache (the path the synth-stage1 prediction is about).
	warmSparse bool
	// replications is the number of Monte-Carlo replications the job's
	// Stage II ran.
	replications int
}

// replayer replays requests through the dispatch calls. Its cache
// mirrors the service's: repeats hit the result tier and variants reuse
// warm tables, in stream order.
type replayer struct {
	ctx     context.Context
	cache   *cache.Cache
	workers int
	tr      *tracer
}

// problem mirrors dispatch.go's resolved problem document.
type problem struct {
	sys      *sysmodel.System
	batch    sysmodel.Batch
	deadline float64
	cases    []core.Case
	edges    []sysmodel.Edge
	echo     json.RawMessage
}

func (r *replayer) replay(id string, rq *request) (*replayJob, error) {
	if r.tr != nil {
		r.tr.job = id
	}
	root := r.tr.begin("server.dispatch")
	defer r.tr.end(root)
	job := &replayJob{id: id, rq: rq}
	var err error
	switch rq.route {
	case "/v1/solve":
		err = r.solve(job)
	case "/v1/scenario":
		err = r.scenario(job)
	default:
		err = fmt.Errorf("no replay for %s", rq.route)
	}
	return job, err
}

// decode parses a request body strictly, like the HTTP layer.
func (r *replayer) decode(body []byte, v any) error {
	var err error
	r.tr.call("api.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	})
	return err
}

// resolve mirrors dispatch.go's resolveProblem for the requests the
// generator sends (edges ride inside the instance).
func (r *replayer) resolve(inst *config.Instance) (*problem, error) {
	t := r.tr
	if inst == nil {
		var f *core.Framework
		t.call("experiments.Framework", func() { f = experiments.Framework() })
		return &problem{sys: f.Sys, batch: f.Batch, deadline: f.Deadline, cases: experiments.Cases()}, nil
	}
	p := &problem{}
	var err error
	if t.call("config.Build", func() { p.sys, p.batch, p.deadline, err = config.Build(inst) }); err != nil {
		return nil, err
	}
	if t.call("config.BuildEdges", func() { p.edges, err = config.BuildEdges(inst) }); err != nil {
		return nil, err
	}
	var named []config.NamedAvailability
	if t.call("config.BuildCases", func() { named, err = config.BuildCases(inst) }); err != nil {
		return nil, err
	}
	for _, na := range named {
		p.cases = append(p.cases, core.Case{Name: na.Name, Avail: na.Avail})
	}
	if len(p.cases) == 0 {
		p.cases = core.FallbackCases(p.sys)
	}
	if t.call("config.Marshal", func() { p.echo, err = config.Marshal(inst) }); err != nil {
		return nil, err
	}
	return p, nil
}

// instanceField mirrors dispatch.go's key field for the problem.
func instanceField(h *cache.Hasher, p *problem) {
	if p.echo != nil {
		h.String("instance").Bytes(p.echo)
	} else {
		h.String("paper-example")
	}
}

func backendOf(name string) (pmf.Backend, error) {
	if name == "" {
		return pmf.BackendSparse, nil // cdsfd's default -pmf
	}
	return pmf.ParseBackend(name)
}

// resultKey computes a result-tier key and looks it up.
func (r *replayer) resultKey(job *replayJob, fields func(h *cache.Hasher)) cache.Key {
	var key cache.Key
	r.tr.call("cache.result_key", func() {
		h := cache.NewHasher("cdsf-result-v1")
		fields(h)
		key = h.Sum()
		job.doc, job.hit = r.cache.GetResult(key)
	})
	job.key = key.String()
	return key
}

func (r *replayer) encode(job *replayJob, key cache.Key, res any) error {
	var err error
	r.tr.call("api.encode", func() { job.doc, err = json.Marshal(res) })
	if err != nil {
		return err
	}
	r.cache.PutResult(key, job.doc)
	return nil
}

// stageI runs the Stage-I calls a solve or scenario makes: the table
// build, the search, and the (DAG) robustness evaluation.
func (r *replayer) stageI(job *replayJob, h ra.Heuristic, prob *ra.Problem, p *problem) (*robustness.StageIResult, error) {
	t := r.tr
	var err error
	if t.call("ra.PrecomputeContext", func() { err = prob.PrecomputeContext(r.ctx, r.workers) }); err != nil {
		return nil, err
	}
	var al sysmodel.Allocation
	if t.call("ra.SolveContext", func() { al, err = ra.SolveContext(r.ctx, h, prob) }); err != nil {
		return nil, err
	}
	var st *robustness.StageIResult
	if t.call("robustness.EvaluateStageIDAG", func() {
		st, err = robustness.EvaluateStageIDAG(p.sys, p.batch, p.edges, al, prob.Deadline)
	}); err != nil {
		return nil, err
	}
	hits, misses := prob.CacheCounts()
	job.info.WarmHits, job.info.WarmMisses = hits, misses
	job.prob, job.alloc, job.deadline, job.backend, job.built = p, al, prob.Deadline, prob.Backend, true
	job.warmSparse = !prob.Backend.IsGrid() && hits > 0 && misses == 0
	return st, nil
}

func (r *replayer) solve(job *replayJob) error {
	job.kind = api.KindSolve
	var req api.SolveRequest
	if err := r.decode(job.rq.body, &req); err != nil {
		return err
	}
	p, err := r.resolve(req.Instance)
	if err != nil {
		return err
	}
	deadline := p.deadline
	if req.Deadline > 0 {
		deadline = req.Deadline
	}
	name := req.Heuristic
	if name == "" {
		name = "exhaustive"
	}
	h, err := ra.ByName(name)
	if err != nil {
		return err
	}
	ra.SetWorkers(h, r.workers)
	if req.Seed != 0 {
		ra.SetSeed(h, req.Seed)
	}
	backend, err := backendOf(req.PMFBackend)
	if err != nil {
		return err
	}
	prob := &ra.Problem{Sys: p.sys, Batch: p.batch, Deadline: deadline, Edges: p.edges, Backend: backend}
	if err := prob.Validate(); err != nil {
		return err
	}
	if r.tr.call("api.encode_request", func() { job.raw, err = json.Marshal(&req) }); err != nil {
		return err
	}
	key := r.resultKey(job, func(hk *cache.Hasher) {
		hk.String(string(api.KindSolve))
		instanceField(hk, p)
		hk.String(h.Name()).Float64(deadline).Uint64(req.Seed).String(backend.String())
	})
	if job.hit {
		return nil
	}
	job.info = &api.CacheInfo{Key: job.key}
	prob.Cache = r.cache
	st, err := r.stageI(job, h, prob, p)
	if err != nil {
		return err
	}
	wire := api.FromStageI(st)
	return r.encode(job, key, api.SolveResult{
		Heuristic:     h.Name(),
		Allocation:    wire.Allocation,
		Phi1:          wire.Phi1,
		PerApp:        wire.PerApp,
		ExpectedTimes: wire.ExpectedTimes,
		Instance:      p.echo,
	})
}

// scenario replays a scenario job as the calls core.RunScenarioContext
// makes: Stage I on the scenario's IM, then one RunCaseContext per
// availability case. Case ci of a scenario run seeds its cells with
// cfg.Seed ^ ci<<40, so RunCaseContext (case salt 0) reproduces it
// exactly when handed that seed; the byte-identity check on the
// assembled document pins the equivalence.
func (r *replayer) scenario(job *replayJob) error {
	job.kind = api.KindScenario
	t := r.tr
	var req api.ScenarioRequest
	if err := r.decode(job.rq.body, &req); err != nil {
		return err
	}
	p, err := r.resolve(req.Instance)
	if err != nil {
		return err
	}
	number := req.Scenario
	if number == 0 {
		number = 4
	}
	sc, err := core.BuildScenario(number, req.IM, req.RAS)
	if err != nil {
		return err
	}
	ra.SetWorkers(sc.IM, r.workers)
	backend, err := backendOf(req.PMFBackend)
	if err != nil {
		return err
	}
	f := &core.Framework{Sys: p.sys, Batch: p.batch, Deadline: p.deadline, Edges: p.edges}
	if err := f.Validate(); err != nil {
		return err
	}
	cfg := core.DefaultStageII(p.deadline, req.Seed)
	if req.Reps > 0 {
		cfg.Reps = req.Reps
	}
	cfg.PMFBackend = backend
	if t.call("api.encode_request", func() { job.raw, err = json.Marshal(&req) }); err != nil {
		return err
	}
	key := r.resultKey(job, func(hk *cache.Hasher) {
		hk.String(string(api.KindScenario))
		instanceField(hk, p)
		hk.String(sc.Name).Int(cfg.Reps).Uint64(req.Seed).String(backend.String())
	})
	if job.hit {
		return nil
	}
	job.info = &api.CacheInfo{Key: job.key}
	cfg.Cache = r.cache
	prob := &ra.Problem{Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline, Edges: f.Edges,
		Backend: cfg.PMFBackend, Cache: cfg.Cache}
	st, err := r.stageI(job, sc.IM, prob, p)
	if err != nil {
		return err
	}
	res := &core.ScenarioResult{Scenario: sc.Name, StageI: st}
	stage2 := t.begin("core.stage2")
	for ci, c := range p.cases {
		cc := cfg
		cc.Seed = cfg.Seed ^ uint64(ci)<<40
		var cr *core.CaseResult
		if t.call("core.RunCaseContext", func() { cr, err = f.RunCaseContext(r.ctx, job.alloc, sc.RAS, c, cc) }); err != nil {
			t.end(stage2)
			return err
		}
		res.Cases = append(res.Cases, *cr)
		job.replications += len(f.Batch) * len(sc.RAS) * cfg.Reps
	}
	t.end(stage2)
	wire := api.FromScenarioResult(res)
	wire.Instance = p.echo
	return r.encode(job, key, wire)
}

// probes are timed calls made after a job, outside its span tree: the
// layers the job reaches only from inside another call (the table key
// inside the table build; CompletionPMF and ComposeDAG inside the
// robustness evaluation) are called again on the job's own inputs.
type probes struct {
	tableKey   durations
	completion durations // every app's CompletionPMF for one allocation
	compose    durations // one sysmodel.ComposeDAG
	// tableKeyWarmSparse times the key on warm sparse solves, which the
	// synth-stage1 prediction compares with their config.Build spans.
	tableKeyWarmSparse durations
	ops                opSet
}

type durations struct {
	n     int
	total time.Duration
}

func (d *durations) add(x time.Duration) { d.n++; d.total += x }

func (d durations) mean() time.Duration {
	if d.n == 0 {
		return 0
	}
	return d.total / time.Duration(d.n)
}

// opSet holds pmf kernel operands captured from real jobs for the
// drill-down, capped so the drill-down stays inside the run budget.
type opSet struct {
	add, max [][2]pmf.PMF
	compact  []pmf.PMF
	div      [][2]pmf.PMF
	toGrid   []gridOperand
}

type gridOperand struct {
	p    pmf.PMF
	step float64
}

const maxOperands = 4

// gridBinsPerDeadline mirrors ra's lattice resolution: grid cells are
// quantized at deadline/1024.
const gridBinsPerDeadline = 1024

func (pb *probes) run(job *replayJob) error {
	if !job.built {
		return nil
	}
	p := job.prob
	step := 0.0
	if job.backend.IsGrid() {
		step = job.deadline / gridBinsPerDeadline
	}
	start := time.Now()
	if _, err := cache.TableKey(p.sys, p.batch, job.backend, step); err != nil {
		return err
	}
	d := time.Since(start)
	pb.tableKey.add(d)
	if job.warmSparse {
		pb.tableKeyWarmSparse.add(d)
	}

	// Div and ToGrid operands: each application's parallel-time PMF on
	// its chosen group, against the group type's availability.
	for i, as := range job.alloc {
		if len(pb.ops.div) >= maxOperands {
			break
		}
		pt := p.batch[i].ParallelTimePMF(as.Type, as.Procs)
		pb.ops.div = append(pb.ops.div, [2]pmf.PMF{pt, p.sys.Types[as.Type].Avail})
		pb.ops.toGrid = append(pb.ops.toGrid, gridOperand{pt, job.deadline / gridBinsPerDeadline})
	}

	if len(p.edges) == 0 {
		return nil
	}
	start = time.Now()
	dists := make([]pmf.PMF, len(p.batch))
	for i, as := range job.alloc {
		dists[i] = p.batch[i].CompletionPMF(as.Type, as.Procs, p.sys.Types[as.Type].Avail)
	}
	pb.completion.add(time.Since(start))
	start = time.Now()
	if _, err := sysmodel.ComposeDAG(dists, p.edges, sysmodel.DAGMaxPulses); err != nil {
		return err
	}
	pb.compose.add(time.Since(start))
	if len(pb.ops.add) >= maxOperands && len(pb.ops.max) >= maxOperands && len(pb.ops.compact) >= maxOperands {
		return nil
	}
	return captureCompose(dists, p.edges, &pb.ops)
}

// captureCompose walks ComposeDAG's steps (topological order; Max over
// predecessors, then Add of the app's own time, each compacted to
// DAGMaxPulses) to capture the kernels' real operands.
func captureCompose(dists []pmf.PMF, edges []sysmodel.Edge, ops *opSet) error {
	order, err := sysmodel.TopoOrder(edges, len(dists))
	if err != nil {
		return err
	}
	preds := sysmodel.Preds(edges, len(dists))
	out := make([]pmf.PMF, len(dists))
	keepCompact := func(c pmf.PMF) {
		if c.Len() > sysmodel.DAGMaxPulses && len(ops.compact) < maxOperands {
			ops.compact = append(ops.compact, c)
		}
	}
	for _, i := range order {
		if len(preds[i]) == 0 {
			out[i] = dists[i]
			continue
		}
		ready := out[preds[i][0]]
		for _, p := range preds[i][1:] {
			if len(ops.max) < maxOperands {
				ops.max = append(ops.max, [2]pmf.PMF{ready, out[p]})
			}
			ready = pmf.Max(ready, out[p])
			keepCompact(ready)
			ready = ready.Compact(sysmodel.DAGMaxPulses)
		}
		if len(ops.add) < maxOperands {
			ops.add = append(ops.add, [2]pmf.PMF{ready, dists[i]})
		}
		c := pmf.Add(ready, dists[i])
		keepCompact(c)
		out[i] = c.Compact(sysmodel.DAGMaxPulses)
	}
	return nil
}

// kernelStat is one drill-down row.
type kernelStat struct {
	Op          string  `json:"op"`
	Operands    int     `json:"operands"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  float64 `json:"bytes_op"`
	AllocsPerOp float64 `json:"allocs_op"`
}

// Sinks keep the measured kernels' results alive, so the compiler
// cannot drop the calls.
var (
	pmfSink pmf.PMF
	lenSink int
)

// measure times op like testing.B: it grows the iteration count until
// a batch takes at least 5ms, then reports that batch's ns, bytes and
// allocations per call.
func measure(op func()) (ns, bytes, allocs float64) {
	op()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(start) >= 5*time.Millisecond || n >= 1<<16 {
			break
		}
		n *= 4
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	fn := float64(n)
	return float64(el.Nanoseconds()) / fn, float64(m1.TotalAlloc-m0.TotalAlloc) / fn, float64(m1.Mallocs-m0.Mallocs) / fn
}

// drillDown times each captured pmf kernel on its operands.
func (ops *opSet) drillDown() []kernelStat {
	var out []kernelStat
	row := func(name string, n int, op func(k int)) {
		if n == 0 {
			return
		}
		s := kernelStat{Op: name, Operands: n}
		for k := 0; k < n; k++ {
			ns, b, a := measure(func() { op(k) })
			s.NsPerOp += ns / float64(n)
			s.BytesPerOp += b / float64(n)
			s.AllocsPerOp += a / float64(n)
		}
		out = append(out, s)
	}
	row("pmf.Add", len(ops.add), func(k int) { pmfSink = pmf.Add(ops.add[k][0], ops.add[k][1]) })
	row("pmf.Max", len(ops.max), func(k int) { pmfSink = pmf.Max(ops.max[k][0], ops.max[k][1]) })
	row("pmf.Compact", len(ops.compact), func(k int) { pmfSink = ops.compact[k].Compact(sysmodel.DAGMaxPulses) })
	row("pmf.Div", len(ops.div), func(k int) { pmfSink = pmf.Div(ops.div[k][0], ops.div[k][1]) })
	row("pmf.ToGrid", len(ops.toGrid), func(k int) {
		g := ops.toGrid[k].p.ToGrid(ops.toGrid[k].step)
		lenSink = g.Len()
		g.Release()
	})
	return out
}

// walReplay appends each replayed job's lifecycle records to a fresh
// WAL the way the service does (accepted + done for result-tier hits;
// accepted, queued, started, done otherwise), timing every Append.
// Durable records wait for the group-committed fsync.
func walReplay(dir string, jobs []*replayJob, tr *tracer) (durations, error) {
	var d durations
	w, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return d, err
	}
	for _, j := range jobs {
		id := w.NextID()
		recs := []store.Record{{Job: id, Type: events.TypeAccepted, Kind: j.kind, Request: j.raw}}
		if j.hit {
			recs = append(recs, store.Record{Job: id, Type: events.TypeDone, Result: j.doc,
				Cache: &api.CacheInfo{Key: j.key, ResultHit: true}})
		} else {
			recs = append(recs,
				store.Record{Job: id, Type: events.TypeQueued},
				store.Record{Job: id, Type: events.TypeStarted, Time: time.Now().UTC()},
				store.Record{Job: id, Type: events.TypeDone, Result: j.doc, Cache: j.info})
		}
		for _, rec := range recs {
			start := time.Now()
			err := w.Append(rec)
			end := time.Now()
			if err != nil {
				w.Close()
				return d, err
			}
			d.add(end.Sub(start))
			tr.add(j.id, "store.Append", -1, start, end)
		}
	}
	return d, w.Close()
}
