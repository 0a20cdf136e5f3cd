package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cdsf/internal/api"
	"cdsf/internal/core"
	"cdsf/internal/sysmodel"
	"cdsf/internal/tracing"
)

// maxRequestBytes bounds a request body. Instances carry explicit PMFs
// per application and type, so the bound is generous; it exists to keep
// a misbehaving client from exhausting memory, not to constrain real
// documents.
const maxRequestBytes = 16 << 20

// Handler returns the service's HTTP surface:
//
//	POST   /v1/solve             submit a Stage-I search        -> 202 + Job
//	POST   /v1/simulate          submit a Stage-II Monte Carlo  -> 202 + Job
//	POST   /v1/scenario          submit a full framework run    -> 202 + Job
//	GET    /v1/jobs              list jobs (?state=a,b filters;
//	                             ?limit=n&after=id paginates)
//	GET    /v1/jobs/{id}         poll one job
//	DELETE /v1/jobs/{id}         cancel one job
//	GET    /v1/jobs/{id}/events  the job's event log (JSON;
//	                             ?follow=1 streams SSE with
//	                             Last-Event-ID resume)
//	GET    /v1/healthz           liveness: queue depth, inflight,
//	                             drain or degraded state, cache
//	                             counters, job store stats
//
// plus the debug endpoints every CLI exposes behind -debug-addr
// (/metrics, /progress, /trace, /debug/pprof/*), mounted on the same
// mux with the server's registry. /progress sums the progress boards of
// the queued and running jobs only: a job's board leaves the sum when
// the job reaches a terminal state.
//
// Every route above is wrapped in the RED middleware (middleware.go):
// per-route/status counters, latency histograms, and inflight gauges
// land in the same registry the /metrics endpoint serves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.instrument("solve", s.handleSolve))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/scenario", s.instrument("scenario", s.handleScenario))
	mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", s.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("job_events", s.handleJobEvents))
	mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleHealth))
	tracing.Mount(mux, s.opts.Metrics, s.progressSnapshot, s.opts.Tracer)
	return mux
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the uniform v1.1 error document: a stable code
// plus a human-readable message.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.Error{Code: code, Message: msg})
}

// writeFieldError writes the error document for a validation failure,
// extracting the offending JSON field path when the error carries one:
// names that resolve to nothing (core.FieldError, fields like
// "heuristic" or "techniques[1]"), DAG edge errors (sysmodel.EdgeError,
// paths like "edges[3].from") and JSON type mismatches (whose Field is
// the decoder's dotted path) all do.
func writeFieldError(w http.ResponseWriter, status int, code string, err error) {
	doc := api.Error{Code: code, Message: err.Error()}
	var fe *core.FieldError
	var ee *sysmodel.EdgeError
	var te *json.UnmarshalTypeError
	switch {
	case errors.As(err, &fe):
		doc.Field = fe.Field
	case errors.As(err, &ee):
		doc.Field = ee.Path
	case errors.As(err, &te) && te.Field != "":
		doc.Field = te.Field
	}
	writeJSON(w, status, doc)
}

// decode parses a request body strictly: unknown fields are rejected so
// a typo'd option fails loudly instead of silently running with
// defaults.
func decode[T any](w http.ResponseWriter, r *http.Request) (*T, bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	req := new(T)
	if err := dec.Decode(req); err != nil {
		writeFieldError(w, http.StatusBadRequest, api.ErrBadRequest,
			fmt.Errorf("decoding request: %w", err))
		return nil, false
	}
	return req, true
}

// accept admits a prepared job and writes the admission response: 202
// with the envelope and a Location header (whether the job was
// enqueued or answered terminally from the cache), 429 + Retry-After
// when the queue is full, 503 while draining. The Retry-After estimate
// is the backlog's drain time: queue depth x the rolling mean of
// recent job wall times / the executor-pool width (floor 1s).
func (s *Server) accept(w http.ResponseWriter, spec *jobSpec) {
	var j api.Job
	var err error
	if spec.cached != nil {
		j, err = s.admitCached(spec)
	} else {
		j, err = s.enqueue(spec)
	}
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, api.ErrDraining, err.Error())
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, api.ErrQueueFull, err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.ErrInternal, err.Error())
	default:
		w.Header().Set("Location", "/"+api.Version+"/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j)
	}
}

// handleSolve validates a Stage-I request eagerly (bad instances and
// unknown heuristic names are the client's fault and answer 400) and
// admits the search.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[api.SolveRequest](w, r)
	if !ok {
		return
	}
	spec, err := s.prepareSolve(req)
	if err != nil {
		writeFieldError(w, http.StatusBadRequest, api.ErrBadRequest, err)
		return
	}
	s.accept(w, spec)
}

// handleSimulate validates a Stage-II request eagerly and admits the
// Monte-Carlo evaluation of the fixed allocation under one case.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[api.SimulateRequest](w, r)
	if !ok {
		return
	}
	spec, err := s.prepareSimulate(req)
	if err != nil {
		writeFieldError(w, http.StatusBadRequest, api.ErrBadRequest, err)
		return
	}
	s.accept(w, spec)
}

// handleScenario validates a full framework request eagerly and admits
// the dual-stage run over every availability case.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[api.ScenarioRequest](w, r)
	if !ok {
		return
	}
	spec, err := s.prepareScenario(req)
	if err != nil {
		writeFieldError(w, http.StatusBadRequest, api.ErrBadRequest, err)
		return
	}
	s.accept(w, spec)
}

// handleJobs lists jobs, optionally filtered by ?state=queued,running
// and paginated with ?limit=n (page size) and ?after=id (exclusive
// cursor — the id the previous page's "next" reported). The response's
// total counts every match, so clients can size progress bars without
// walking all pages.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var states map[api.JobState]bool
	if vals, ok := q["state"]; ok {
		states = map[api.JobState]bool{}
		for _, v := range vals {
			for _, part := range strings.Split(v, ",") {
				st := api.JobState(strings.TrimSpace(part))
				switch st {
				case api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCancelled:
					states[st] = true
				default:
					writeError(w, http.StatusBadRequest, api.ErrBadRequest, fmt.Sprintf("unknown state %q", part))
					return
				}
			}
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, api.ErrBadRequest, fmt.Sprintf("limit must be a positive integer, got %q", v))
			return
		}
		limit = n
	}
	jobs, total, next, err := s.list(states, q.Get("after"), limit)
	switch {
	case errors.Is(err, errBadCursor):
		writeError(w, http.StatusBadRequest, api.ErrBadRequest, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.ErrInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, api.JobList{APIVersion: api.MinorVersion, Jobs: jobs, Total: total, Next: next})
}

// handleJob polls one job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	env, ok, err := s.snapshot(id)
	writeJob(w, http.StatusOK, id, env, ok, err)
}

// writeJob answers with a job envelope: 404 for an unknown job, 500
// when its result document could not be read back from the store.
func writeJob(w http.ResponseWriter, status int, id string, env api.Job, ok bool, err error) {
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, api.ErrNotFound, fmt.Sprintf("no job %q", id))
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.ErrInternal, err.Error())
	default:
		writeJSON(w, status, env)
	}
}

// handleCancel cancels one job. A job cancelled while queued (or
// already terminal) answers 200 with its final envelope; a running job
// answers 202 — its context is cancelled and the engine drains, so the
// client polls until the state flips to cancelled.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	env, ok, err := s.cancelJob(id)
	status := http.StatusOK
	if env.State == api.JobRunning {
		status = http.StatusAccepted
	}
	writeJob(w, status, id, env, ok, err)
}

// handleHealth reports liveness as a structured document: drain state,
// queue and executor saturation, lifetime job counts, the job store's
// backend and journal/replay stats, and — when present — the cache
// counters. "ok" flips to "degraded" once a store append has failed
// (server.store_errors is non-zero: a transition may be missing from
// the journal) and to "draining" once admission has stopped, which
// takes precedence; a load balancer keying on the status string stops
// routing during shutdown.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	reg := s.opts.Metrics
	h := api.Health{
		Status:        "ok",
		Version:       api.Version,
		APIVersion:    api.MinorVersion,
		Draining:      s.Draining(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.opts.Queue,
		Inflight:      int(s.inflight.Load()),
		Executors:     s.opts.Executors,
		Jobs: api.HealthJobs{
			Submitted: reg.Counter("server.jobs_submitted").Value(),
			Done:      reg.Counter("server.jobs_done").Value(),
			Failed:    reg.Counter("server.jobs_failed").Value(),
			Cancelled: reg.Counter("server.jobs_cancelled").Value(),
			Rejected:  reg.Counter("server.jobs_rejected").Value(),
		},
	}
	switch {
	case h.Draining:
		h.Status = "draining"
	case s.storeErrors.Value() > 0:
		h.Status = "degraded"
	}
	st := s.store.Stats()
	h.Store = &api.HealthStore{
		Backend:         st.Backend,
		Jobs:            st.Jobs,
		Records:         st.Records,
		WALBytes:        st.WALBytes,
		Fsyncs:          st.Fsyncs,
		ReplayedRecords: st.ReplayedRecords,
		ReplayedJobs:    st.ReplayedJobs,
		RecoveredJobs:   st.RecoveredJobs,
		TruncatedBytes:  st.TruncatedBytes,
	}
	if s.opts.Cache != nil {
		h.Cache = &api.HealthCache{
			ResultHits:   reg.Counter("cache.result_hits").Value(),
			ResultMisses: reg.Counter("cache.result_misses").Value(),
			TableHits:    reg.Counter("cache.table_hits").Value(),
			TableMisses:  reg.Counter("cache.table_misses").Value(),
		}
	}
	writeJSON(w, http.StatusOK, h)
}
