// Package store is the pluggable job store behind the cdsfd
// scheduling service: the durable (or deliberately non-durable) record
// of every job's lifecycle, factored out of internal/server so the
// service can run on either backend without the HTTP layer or the
// executor pool knowing which one it has.
//
// Two implementations ship:
//
//   - Memory: the original in-process job table (map + submission
//     order + id sequence), extracted from internal/server. Zero
//     dependencies, zero durability — jobs die with the process, which
//     is what single-machine reproductions want.
//   - WAL (wal.go): an append-only write-ahead log that journals every
//     lifecycle transition as a CRC-framed record, fsyncs in batches
//     (group commit), and replays the log on open so accepted jobs
//     survive kill -9. Seeded jobs are bit-identical, so a replayed
//     job re-runs to exactly the first run's result bytes.
//
// The record schema is grown out of the internal/events lifecycle
// types: a Record is an events-style transition (accepted, queued,
// started, progress, done, failed, cancelled, drained) plus the
// payloads the store must retain — the original request document (so
// an interrupted job can be re-dispatched after a crash) and the
// result document.
//
// Both stores materialize records into the same Job state machine
// (apply), so WAL replay and live appends go through one code path.
// apply ignores a record type it does not know, so a journal holding
// frames of a retired type (such as the assigned leases of the removed
// coordinator/worker mode) still replays.
package store

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/events"
	"cdsf/internal/tracing"
)

// Record is one lifecycle transition, the unit both stores append and
// the WAL frames on disk. Type reuses the internal/events vocabulary;
// the store-relevant payloads ride along and are empty on transitions
// that do not carry them.
type Record struct {
	// Seq is the store-wide append sequence, assigned by the store.
	Seq int64 `json:"seq"`
	// Time is the transition's wall clock (UTC); the store stamps it
	// when the caller leaves it zero.
	Time time.Time `json:"time"`
	// Job is the job id the transition belongs to.
	Job string `json:"job"`
	// Type is the lifecycle transition, from the events vocabulary.
	Type events.Type `json:"type"`
	// Kind is the job's engine entry point; set on accepted.
	Kind api.JobKind `json:"kind,omitempty"`
	// Detail is the human fragment: an error message on failed and
	// cancelled, the recovery note on a replayed re-queue.
	Detail string `json:"detail,omitempty"`
	// Request is the original request document, set on accepted. It is
	// what makes crash recovery possible: the job can be re-validated
	// and re-run from its own record.
	Request json.RawMessage `json:"request,omitempty"`
	// Result is the finished result document, set on done.
	Result json.RawMessage `json:"result,omitempty"`
	// Cache is the envelope cache block, set on done when the server
	// runs with a solve cache.
	Cache *api.CacheInfo `json:"cache,omitempty"`
	// Progress is a sampled progress snapshot, set on progress.
	Progress *tracing.ProgressSnapshot `json:"progress,omitempty"`
}

// Job is the materialized state of one job: the wire envelope plus the
// retained request document.
type Job struct {
	Env     api.Job
	Request json.RawMessage
}

// Stats describes a store for /v1/healthz: which backend is running,
// how much it has journaled, and what the last replay recovered.
type Stats struct {
	// Backend is "memory" or "wal".
	Backend string `json:"backend"`
	// Jobs is the number of jobs currently materialized.
	Jobs int `json:"jobs"`
	// Records counts appends over the store's lifetime (excluding
	// replayed records, which are counted separately).
	Records int64 `json:"records"`
	// WALBytes is the journal file size (WAL only).
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// Fsyncs counts physical fsync calls; group commit makes this
	// smaller than the number of durable appends under load (WAL only).
	Fsyncs int64 `json:"fsyncs,omitempty"`
	// ReplayedRecords and ReplayedJobs describe the startup replay:
	// how many frames were read back and how many jobs they
	// materialized (WAL only).
	ReplayedRecords int64 `json:"replayed_records,omitempty"`
	ReplayedJobs    int64 `json:"replayed_jobs,omitempty"`
	// RecoveredJobs is how many replayed jobs were interrupted
	// (non-terminal at crash) and handed back for re-enqueueing.
	RecoveredJobs int64 `json:"recovered_jobs,omitempty"`
	// TruncatedBytes is the size of the torn tail discarded at replay
	// (a partially written frame from the crash).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// JobStore is what internal/server runs on: an append-only transition
// log materialized into per-job state. Implementations serialize
// internally; the server additionally serializes lifecycle decisions
// under its own mutex, exactly as the pre-store code did.
type JobStore interface {
	// Backend names the implementation ("memory", "wal").
	Backend() string
	// NextID allocates the next job id (ids survive restarts: the WAL
	// store continues past the highest replayed id).
	NextID() string
	// Append applies one transition to the materialized state and, for
	// durable backends, journals it. Accepted and terminal transitions
	// do not return until the record is durable (fsynced); queued,
	// started, and progress records are journaled asynchronously.
	Append(rec Record) error
	// Get returns the materialized job.
	Get(id string) (Job, bool)
	// List returns every materialized job in submission order.
	List() []Job
	// Interrupted returns the jobs that were non-terminal when the
	// store was opened — the crash-recovery work list. Empty for the
	// memory store.
	Interrupted() []Job
	// Stats reports the backend description for /v1/healthz.
	Stats() Stats
	// Close releases the store (flushes and closes the WAL file).
	Close() error
}

// table is the shared materialized state: jobs by id plus submission
// order and the id sequence. Memory embeds it directly; WAL drives it
// from replayed and live records.
type table struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int
	appended int64
}

func newTable() *table {
	return &table{jobs: map[string]*Job{}}
}

// nextID allocates the next job id in the service's historical format.
func (t *table) nextID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("job-%06d", t.seq)
}

// bumpSeq advances the id sequence past a replayed job id, so ids
// allocated after a restart never collide with journaled ones.
func (t *table) bumpSeq(id string) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil {
		return
	}
	t.mu.Lock()
	if n > t.seq {
		t.seq = n
	}
	t.mu.Unlock()
}

// apply folds one record into the materialized state — the single
// lifecycle state machine behind live appends and WAL replay.
func (t *table) apply(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[rec.Job]
	if !ok {
		if rec.Type != events.TypeAccepted {
			// A transition for a job the store never accepted (a
			// truncated WAL lost the accepted frame): nothing to apply
			// to, drop it.
			return
		}
		j = &Job{}
		t.jobs[rec.Job] = j
		t.order = append(t.order, rec.Job)
	}
	when := rec.Time
	switch rec.Type {
	case events.TypeAccepted:
		j.Env = api.Job{ID: rec.Job, Kind: rec.Kind, State: api.JobQueued, Created: when}
		j.Request = rec.Request
	case events.TypeQueued:
		// Initial queueing, or a re-queue (crash recovery): the job
		// becomes runnable again with a clean slate.
		j.Env.State = api.JobQueued
		j.Env.Started = nil
		j.Env.Finished = nil
		j.Env.Result = nil
		j.Env.Error = ""
	case events.TypeStarted:
		j.Env.State = api.JobRunning
		j.Env.Started = &when
	case events.TypeProgress:
		j.Env.Progress = rec.Progress
	case events.TypeDone:
		j.Env.State = api.JobDone
		if j.Env.Started == nil {
			// A cache-replayed admission collapses the lifecycle into
			// accepted -> done; the envelope still carries timestamps.
			j.Env.Started = &when
		}
		j.Env.Finished = &when
		j.Env.Result = rec.Result
		j.Env.Cache = rec.Cache
	case events.TypeFailed:
		j.Env.State = api.JobFailed
		j.Env.Finished = &when
		j.Env.Error = rec.Detail
	case events.TypeCancelled, events.TypeDrained:
		j.Env.State = api.JobCancelled
		j.Env.Finished = &when
		j.Env.Error = rec.Detail
	}
}

func (t *table) get(id string) (Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

func (t *table) list() []Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Job, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, *t.jobs[id])
	}
	return out
}

// nonTerminal returns the jobs whose state is not final, in submission
// order — the replay recovery work list.
func (t *table) nonTerminal() []Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Job
	for _, id := range t.order {
		if j := t.jobs[id]; !j.Env.State.Terminal() {
			out = append(out, *j)
		}
	}
	return out
}

func (t *table) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// Memory is the zero-dependency in-process store: the job table the
// server used to own inline, behind the JobStore interface. Nothing
// survives the process.
type Memory struct {
	t *table
}

// NewMemory returns an empty in-memory job store.
func NewMemory() *Memory {
	return &Memory{t: newTable()}
}

// Backend implements JobStore.
func (m *Memory) Backend() string { return "memory" }

// NextID implements JobStore.
func (m *Memory) NextID() string { return m.t.nextID() }

// Append implements JobStore: the record is applied to the in-memory
// state and forgotten.
func (m *Memory) Append(rec Record) error {
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	m.t.mu.Lock()
	m.t.appended++
	rec.Seq = m.t.appended
	m.t.mu.Unlock()
	m.t.apply(rec)
	return nil
}

// Get implements JobStore.
func (m *Memory) Get(id string) (Job, bool) { return m.t.get(id) }

// List implements JobStore.
func (m *Memory) List() []Job { return m.t.list() }

// Interrupted implements JobStore: a fresh memory store never has
// anything to recover.
func (m *Memory) Interrupted() []Job { return nil }

// Stats implements JobStore.
func (m *Memory) Stats() Stats {
	m.t.mu.Lock()
	n := m.t.appended
	m.t.mu.Unlock()
	return Stats{Backend: "memory", Jobs: m.t.len(), Records: n}
}

// Close implements JobStore.
func (m *Memory) Close() error { return nil }
