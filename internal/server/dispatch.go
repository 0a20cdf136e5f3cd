package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"cdsf/internal/api"
	"cdsf/internal/cache"
	"cdsf/internal/config"
	"cdsf/internal/core"
	"cdsf/internal/dls"
	"cdsf/internal/experiments"
	"cdsf/internal/pmf"
	"cdsf/internal/ra"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// This file is the dispatch layer: it turns a validated request
// document into a jobSpec — everything the executor needs to run the
// job. It used to live inline in the HTTP handlers; it is a separate
// layer now because WAL crash recovery needs it too (re-dispatching an
// interrupted job from its journaled request). Both paths validate and
// build identically, so a replayed job is bit-identical to a freshly
// submitted one.

// jobSpec is a fully validated, ready-to-run job: the run closure, the
// raw request document for durable storage, and the job's cache
// identity.
type jobSpec struct {
	kind         api.JobKind
	withProgress bool
	// request is the canonical re-marshaling of the validated request,
	// journaled by the store.
	request json.RawMessage
	// key/info carry the cache identity (zero/nil when caching is off);
	// cached is the result-tier document when the request was already
	// answered once — the job then completes at admission.
	key    cache.Key
	info   *api.CacheInfo
	cached []byte
	// run executes the job, reporting to obs: the server's registry
	// and tracer and the job's own progress board (see runJob).
	run func(ctx context.Context, obs tracing.Scope) (any, error)
}

// prepare validates a raw request document of the given kind — the
// crash-recovery entry point, re-dispatching a journaled request.
func (s *Server) prepare(kind api.JobKind, raw json.RawMessage) (*jobSpec, error) {
	switch kind {
	case api.KindSolve:
		var req api.SolveRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf("decoding stored request: %w", err)
		}
		return s.prepareSolve(&req)
	case api.KindSimulate:
		var req api.SimulateRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf("decoding stored request: %w", err)
		}
		return s.prepareSimulate(&req)
	case api.KindScenario:
		var req api.ScenarioRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf("decoding stored request: %w", err)
		}
		return s.prepareScenario(&req)
	}
	return nil, fmt.Errorf("unknown job kind %q", kind)
}

// rawRequest re-marshals a validated request into the canonical bytes
// the store journals.
func rawRequest(req any) (json.RawMessage, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return raw, nil
}

// instanceField folds the request's problem identity into a result
// key: the canonical instance bytes, or a fixed marker for the
// embedded paper example (which has no canonical echo). A submitted
// instance's echo already contains its effective edges; the paper
// example folds request edges in explicitly, so two jobs differing
// only in topology can never share a key.
func instanceField(h *cache.Hasher, p *problem) {
	if p.echo != nil {
		h.String("instance").Bytes(p.echo)
	} else {
		h.String("paper-example")
		for _, e := range p.edges {
			h.Int(e.From).Int(e.To)
		}
	}
}

// problem is a resolved problem document: the model objects, the
// availability cases to evaluate, the precedence edges, and the
// canonical echo of the submitted instance (nil for the embedded paper
// example).
type problem struct {
	sys      *sysmodel.System
	batch    sysmodel.Batch
	deadline float64
	cases    []core.Case
	edges    []sysmodel.Edge
	echo     json.RawMessage
}

// paperProblem is the embedded paper example with the paper's four
// availability cases, built once per process. Requests share its model
// objects read-only: nothing mutates a System, a Batch or a case list
// (System.WithAvailability copies).
var paperProblem = sync.OnceValue(func() problem {
	f := experiments.Framework()
	return problem{sys: f.Sys, batch: f.Batch, deadline: f.Deadline, cases: experiments.Cases()}
})

// resolveProblem builds the model objects for a request. A nil instance
// means the embedded paper example (paperProblem); an instance without
// declared cases gets core.FallbackCases, exactly like the cdsf CLI.
// Non-empty request edges (v1.1) override the instance's own and become
// part of the canonical echo, so the result document and the cache
// identity both carry the effective topology.
func resolveProblem(inst *config.Instance, edges []config.EdgeSpec) (*problem, error) {
	if inst != nil && len(edges) > 0 {
		clone := *inst
		clone.Edges = edges
		inst = &clone
	}
	if inst == nil {
		p := paperProblem()
		if len(edges) > 0 {
			es := make([]sysmodel.Edge, len(edges))
			for i, e := range edges {
				es[i] = sysmodel.Edge{From: e.From, To: e.To}
			}
			if err := sysmodel.ValidateEdges(es, len(p.batch)); err != nil {
				return nil, err
			}
			p.edges = es
		}
		return &p, nil
	}
	sys, batch, deadline, err := config.Build(inst)
	if err != nil {
		return nil, err
	}
	es, err := config.BuildEdges(inst)
	if err != nil {
		return nil, err
	}
	named, err := config.BuildCases(inst)
	if err != nil {
		return nil, err
	}
	cases := make([]core.Case, 0, len(named))
	for _, na := range named {
		cases = append(cases, core.Case{Name: na.Name, Avail: na.Avail})
	}
	if len(cases) == 0 {
		cases = core.FallbackCases(sys)
	}
	echo, err := config.Marshal(inst)
	if err != nil {
		return nil, err
	}
	return &problem{sys: sys, batch: batch, deadline: deadline, cases: cases, edges: es, echo: echo}, nil
}

// resolveCase picks the availability case a simulate request names:
// empty or "reference" means the reference availability, anything else
// must match one of the instance's cases.
func (p *problem) resolveCase(name string) (core.Case, error) {
	if name == "" || strings.EqualFold(name, "reference") {
		ref := make([]pmf.PMF, len(p.sys.Types))
		for j, t := range p.sys.Types {
			ref[j] = t.Avail
		}
		return core.Case{Name: "reference", Avail: ref}, nil
	}
	for _, c := range p.cases {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	names := make([]string, len(p.cases))
	for i, c := range p.cases {
		names[i] = c.Name
	}
	return core.Case{}, fmt.Errorf("unknown case %q (have reference, %s)", name, strings.Join(names, ", "))
}

// workersFor resolves a request's worker count against the server
// default.
func (s *Server) workersFor(requested int) int {
	if requested > 0 {
		return requested
	}
	return s.opts.Workers
}

// backendFor resolves a request's pmf_backend against the server
// default; an unknown name is the client's fault.
func (s *Server) backendFor(requested string) (pmf.Backend, error) {
	if requested == "" {
		return s.opts.PMFBackend, nil
	}
	b, err := pmf.ParseBackend(requested)
	if err != nil {
		return b, &core.FieldError{Field: "pmf_backend", Err: err}
	}
	return b, nil
}

// stageII builds the Stage-II configuration for a request from the
// paper defaults.
func stageII(deadline float64, seed uint64, reps int) core.StageIIConfig {
	cfg := core.DefaultStageII(deadline, seed)
	if reps > 0 {
		cfg.Reps = reps
	}
	return cfg
}

// prepareSolve validates a Stage-I request (bad instances and unknown
// heuristic names are the client's fault) and builds the search job.
func (s *Server) prepareSolve(req *api.SolveRequest) (*jobSpec, error) {
	p, err := resolveProblem(req.Instance, req.Edges)
	if err != nil {
		return nil, err
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
		return nil, &core.FieldError{Field: "heuristic", Err: err}
	}
	ra.SetWorkers(h, s.workersFor(req.Workers))
	if req.Seed != 0 {
		ra.SetSeed(h, req.Seed)
	}
	backend, err := s.backendFor(req.PMFBackend)
	if err != nil {
		return nil, err
	}
	prob := &ra.Problem{Sys: p.sys, Batch: p.batch, Deadline: deadline, Edges: p.edges,
		Backend: backend}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	raw, err := rawRequest(req)
	if err != nil {
		return nil, err
	}
	label := h.Name()
	spec := &jobSpec{kind: api.KindSolve, request: raw}
	if s.opts.Cache != nil {
		// Everything the result document depends on; Workers is
		// deliberately excluded (results are identical for any count).
		hk := cache.NewHasher("cdsf-result-v1")
		hk.String(string(api.KindSolve))
		instanceField(hk, p)
		hk.String(label).Float64(deadline).Uint64(req.Seed).String(backend.String())
		spec.key = hk.Sum()
		if doc, ok := s.opts.Cache.GetResult(spec.key); ok {
			spec.cached = doc
			return spec, nil
		}
		spec.info = &api.CacheInfo{Key: spec.key.String()}
		prob.Cache = s.opts.Cache
	}
	info := spec.info
	spec.run = func(ctx context.Context, obs tracing.Scope) (any, error) {
		prob.Obs = obs
		al, err := ra.SolveContext(ctx, h, prob)
		if err != nil {
			return nil, err
		}
		if info != nil {
			info.WarmHits, info.WarmMisses = prob.CacheCounts()
		}
		st, err := prob.Evaluate(al)
		if err != nil {
			return nil, err
		}
		wire := api.FromStageI(st)
		return api.SolveResult{
			Heuristic:     label,
			Allocation:    wire.Allocation,
			Phi1:          wire.Phi1,
			PerApp:        wire.PerApp,
			ExpectedTimes: wire.ExpectedTimes,
			Instance:      p.echo,
		}, nil
	}
	return spec, nil
}

// maxIterCV bounds a simulate request's iteration-time CV. Above a CV
// of about 1 a run's simulated makespan, and with it the run's cost,
// grows linearly with the CV; at 10 it is about 8x the makespan at the
// default 0.3 (DESIGN §8).
const maxIterCV = 10

// prepareSimulate validates a Stage-II request and builds the
// Monte-Carlo job evaluating a fixed allocation under one case.
func (s *Server) prepareSimulate(req *api.SimulateRequest) (*jobSpec, error) {
	p, err := resolveProblem(req.Instance, req.Edges)
	if err != nil {
		return nil, err
	}
	if len(req.Allocation) == 0 {
		return nil, fmt.Errorf("allocation is required")
	}
	alloc := api.ToAllocation(req.Allocation)
	if err := alloc.Validate(p.sys, p.batch); err != nil {
		return nil, err
	}
	var techs []dls.Technique
	if len(req.Techniques) == 0 {
		techs = core.RobustRAS()
	} else {
		for k, name := range req.Techniques {
			t, err := dls.ByName(name)
			if err != nil {
				return nil, &core.FieldError{Field: fmt.Sprintf("techniques[%d]", k), Err: err}
			}
			techs = append(techs, t)
		}
	}
	c, err := p.resolveCase(req.Case)
	if err != nil {
		return nil, &core.FieldError{Field: "case", Err: err}
	}
	backend, err := s.backendFor(req.PMFBackend)
	if err != nil {
		return nil, err
	}
	cfg := stageII(p.deadline, req.Seed, req.Reps)
	cfg.PMFBackend = backend
	if req.Overhead != nil {
		cfg.Overhead = *req.Overhead
	}
	if req.IterCV != nil {
		if cv := *req.IterCV; !(cv > 0 && cv <= maxIterCV) {
			return nil, &core.FieldError{Field: "iterCV",
				Err: fmt.Errorf("iterCV %v outside (0, %d]", cv, maxIterCV)}
		}
		cfg.IterCV = *req.IterCV
	}
	if req.TimeSteps > 0 {
		cfg.TimeSteps = req.TimeSteps
	}
	raw, err := rawRequest(req)
	if err != nil {
		return nil, err
	}
	f := &core.Framework{Sys: p.sys, Batch: p.batch, Deadline: p.deadline, Edges: p.edges}
	spec := &jobSpec{kind: api.KindSimulate, withProgress: true, request: raw}
	if s.opts.Cache != nil {
		hk := cache.NewHasher("cdsf-result-v1")
		hk.String(string(api.KindSimulate))
		instanceField(hk, p)
		for _, as := range alloc {
			hk.Int(as.Type).Int(as.Procs)
		}
		for _, t := range techs {
			hk.String(t.Name)
		}
		hk.String(c.Name).Int(cfg.Reps).Uint64(req.Seed)
		hk.Float64(cfg.Overhead).Float64(cfg.IterCV).Int(cfg.TimeSteps)
		hk.String(backend.String())
		spec.key = hk.Sum()
		if doc, ok := s.opts.Cache.GetResult(spec.key); ok {
			spec.cached = doc
			return spec, nil
		}
		spec.info = &api.CacheInfo{Key: spec.key.String()}
		cfg.Cache = s.opts.Cache
	}
	spec.run = func(ctx context.Context, obs tracing.Scope) (any, error) {
		run := cfg
		run.Obs = obs
		cr, err := f.RunCaseContext(ctx, alloc, techs, c, run)
		if err != nil {
			return nil, err
		}
		return api.SimulateResult{CaseResult: api.FromCaseResult(cr), Instance: p.echo}, nil
	}
	return spec, nil
}

// prepareScenario validates a full framework request and builds the
// dual-stage job over every availability case.
func (s *Server) prepareScenario(req *api.ScenarioRequest) (*jobSpec, error) {
	p, err := resolveProblem(req.Instance, req.Edges)
	if err != nil {
		return nil, err
	}
	scenario := req.Scenario
	if scenario == 0 {
		scenario = 4
	}
	sc, err := core.BuildScenario(scenario, req.IM, req.RAS)
	if err != nil {
		return nil, err
	}
	ra.SetWorkers(sc.IM, s.workersFor(req.Workers))
	backend, err := s.backendFor(req.PMFBackend)
	if err != nil {
		return nil, err
	}
	f := &core.Framework{Sys: p.sys, Batch: p.batch, Deadline: p.deadline, Edges: p.edges}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	cfg := stageII(p.deadline, req.Seed, req.Reps)
	cfg.PMFBackend = backend
	cases := p.cases
	raw, err := rawRequest(req)
	if err != nil {
		return nil, err
	}
	spec := &jobSpec{kind: api.KindScenario, withProgress: true, request: raw}
	if s.opts.Cache != nil {
		// sc.Name encodes the resolved scenario: the paper scenarios
		// have unique labels and custom ones embed the IM and technique
		// names, so two requests resolving differently can never share
		// a key.
		hk := cache.NewHasher("cdsf-result-v1")
		hk.String(string(api.KindScenario))
		instanceField(hk, p)
		hk.String(sc.Name).Int(cfg.Reps).Uint64(req.Seed).String(backend.String())
		spec.key = hk.Sum()
		if doc, ok := s.opts.Cache.GetResult(spec.key); ok {
			spec.cached = doc
			return spec, nil
		}
		spec.info = &api.CacheInfo{Key: spec.key.String()}
		cfg.Cache = s.opts.Cache
	}
	info := spec.info
	spec.run = func(ctx context.Context, obs tracing.Scope) (any, error) {
		run := cfg
		run.Obs = obs
		res, err := f.RunScenarioContext(ctx, sc, cases, run)
		if err != nil {
			return nil, err
		}
		if info != nil {
			info.WarmHits, info.WarmMisses = res.WarmHits, res.WarmMisses
		}
		wire := api.FromScenarioResult(res)
		wire.Instance = p.echo
		return wire, nil
	}
	return spec, nil
}
