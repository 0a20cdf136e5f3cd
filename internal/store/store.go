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
// The record schema is the internal/events lifecycle vocabulary: a
// Record is a transition (accepted, queued, started, progress, done,
// failed, cancelled, drained) plus the payloads the store must retain
// — the original request document, until the job is terminal (so an
// interrupted job can be re-dispatched after a crash), and the result
// document.
//
// Both stores materialize records into the same Job state machine
// (apply), so WAL replay and live appends go through one code path.
// apply also derives each record's events into the job's event log,
// which Events serves: the record stream is the only lifecycle log, and
// on the WAL it survives a restart. apply ignores a record type it does
// not know, so a journal holding frames of a retired type (such as the
// assigned leases of the removed coordinator/worker mode) still
// replays.
//
// A finished job keeps only what is served: its envelope and its event
// log, cut to its exact length once the terminal event lands (no event
// follows it). Its request document is dropped at the terminal record,
// since only the recovery of a non-terminal job reads it; the WAL still
// journals it.
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

	// at locates the journal frame of a done record whose result the
	// WAL serves from disk; apply keeps it in place of Result.
	at frameRef
}

// frameRef locates one journal frame: its header's file offset and its
// payload length. The zero value means "not in the journal".
type frameRef struct {
	off int64
	n   uint32
}

// Job is the materialized state of one job: the wire envelope plus the
// request document, which is kept until the job is terminal.
type Job struct {
	Env     api.Job
	Request json.RawMessage

	// result locates the done record's frame when the WAL holds the
	// result document on disk instead of in Env.Result. Get and Resolve
	// read it back.
	result frameRef
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
	// Append applies one transition to the materialized state and the
	// job's event log and, for durable backends, journals it. Accepted
	// and terminal transitions do not return until the record is
	// durable (fsynced); queued, started, and progress records are
	// journaled asynchronously. A durable backend applies the record
	// only once it is as durable as its class promises, and applies it
	// even when journaling fails (the error is returned), so job state
	// still advances.
	Append(rec Record) error
	// Get returns the materialized job and whether it exists. A done
	// job's result document may be read back from durable storage; a
	// failed read is returned as an error (with the rest of the job),
	// never as an empty result.
	Get(id string) (Job, bool, error)
	// Events returns the job's events with Seq > after (every retained
	// event when after precedes the retained window), a channel that
	// closes at the job's next event — nil once the log has ended at a
	// terminal event — and whether the job exists.
	Events(id string, after int64) ([]events.Event, <-chan struct{}, bool)
	// List returns every materialized job in submission order. It
	// reads nothing back from durable storage, so a done job's result
	// document may be missing until Resolve fills it in.
	List() []Job
	// Resolve fills in the result document of a job returned by List,
	// reading it back as Get does; a failed read is returned as an
	// error.
	Resolve(j *Job) error
	// Interrupted returns the jobs that were non-terminal when the
	// store was opened — the crash-recovery work list. Empty for the
	// memory store.
	Interrupted() []Job
	// Stats reports the backend description for /v1/healthz.
	Stats() Stats
	// Close releases the store (flushes and closes the WAL file).
	Close() error
}

// eventBound caps one job's event log: beyond it the oldest events are
// trimmed, and a reader whose cursor precedes the retained window sees
// the gap in the seq numbering.
const eventBound = 4096

// table is the shared materialized state: jobs by id plus submission
// order and the id sequence. Memory embeds it directly; WAL drives it
// from replayed and live records.
type table struct {
	mu       sync.Mutex
	jobs     map[string]*entry
	order    []string
	seq      int
	appended int64
}

// entry is one job in the table: its materialized state and its event
// log, the newest eventBound events derived from its records.
type entry struct {
	job  Job
	evs  []events.Event
	last int64         // seq of the newest event; seqs start at 1
	wake chan struct{} // closed at the next event; nil until a reader waits
}

func newTable() *table {
	return &table{jobs: map[string]*entry{}}
}

// stamp fills a record's store-assigned fields: the store-wide append
// sequence and, when the caller left it zero, the time.
func (t *table) stamp(rec Record) Record {
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	t.mu.Lock()
	t.appended++
	rec.Seq = t.appended
	t.mu.Unlock()
	return rec
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

// apply folds one record into the materialized state and derives its
// events into the job's log — the single lifecycle state machine behind
// live appends and WAL replay.
func (t *table) apply(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.jobs[rec.Job]
	if !ok {
		if rec.Type != events.TypeAccepted {
			// A transition for a job the store never accepted (a
			// truncated WAL lost the accepted frame): nothing to apply
			// to, drop it.
			return
		}
		e = &entry{}
		t.jobs[rec.Job] = e
		t.order = append(t.order, rec.Job)
	}
	j := &e.job
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
		j.result = frameRef{}
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
		j.result = rec.at
		j.Env.Cache = rec.Cache
	case events.TypeFailed:
		j.Env.State = api.JobFailed
		j.Env.Finished = &when
		j.Env.Error = rec.Detail
	case events.TypeCancelled, events.TypeDrained:
		j.Env.State = api.JobCancelled
		j.Env.Finished = &when
		j.Env.Error = rec.Detail
	default:
		// A retired record type: no state change and no event.
		return
	}
	if rec.Type.Terminal() {
		j.Request = nil
	}
	e.derive(rec)
}

// derive appends the events one applied record adds to its job's log:
// the record's own transition, preceded on done by the events its cache
// block implies (a result-tier hit, warm evaluation-table counts).
func (e *entry) derive(rec Record) {
	ev := events.Event{Time: rec.Time, Job: rec.Job, Type: rec.Type,
		Detail: rec.Detail, Progress: rec.Progress}
	switch c := rec.Cache; rec.Type {
	case events.TypeAccepted:
		ev.Detail = string(rec.Kind)
	case events.TypeDone:
		if c != nil && c.ResultHit {
			e.push(events.Event{Time: rec.Time, Job: rec.Job, Type: events.TypeCacheResultHit, Detail: c.Key})
			ev.Detail = "replayed from cache"
		}
		if c != nil && (c.WarmHits > 0 || c.WarmMisses > 0) {
			e.push(events.Event{Time: rec.Time, Job: rec.Job, Type: events.TypeCacheWarm,
				WarmHits: c.WarmHits, WarmMisses: c.WarmMisses})
		}
	}
	e.push(ev)
}

// push numbers one event, appends it to the bounded log, and wakes the
// readers waiting for it. A terminal event ends the log, so the log is
// then copied into a slice of its exact length, dropping append's slack.
func (e *entry) push(ev events.Event) {
	e.last++
	ev.Seq = e.last
	if len(e.evs) == eventBound {
		e.evs = append(e.evs[:0], e.evs[1:]...)
	}
	e.evs = append(e.evs, ev)
	if ev.Type.Terminal() {
		e.evs = append(make([]events.Event, 0, len(e.evs)), e.evs...)
	}
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
}

func (t *table) get(id string) (Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.jobs[id]
	if !ok {
		return Job{}, false
	}
	return e.job, true
}

func (t *table) list() []Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Job, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.jobs[id].job)
	}
	return out
}

// since implements JobStore.Events for both stores.
func (t *table) since(id string, after int64) ([]events.Event, <-chan struct{}, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.jobs[id]
	if !ok {
		return nil, nil, false
	}
	start := 0
	if first := e.last - int64(len(e.evs)) + 1; after >= first {
		start = int(after - first + 1)
	}
	var out []events.Event
	if start < len(e.evs) {
		out = append(out, e.evs[start:]...)
	}
	if n := len(e.evs); n > 0 && e.evs[n-1].Type.Terminal() {
		return out, nil, true
	}
	if e.wake == nil {
		e.wake = make(chan struct{})
	}
	return out, e.wake, true
}

// nonTerminal returns the jobs whose state is not final, in submission
// order — the replay recovery work list.
func (t *table) nonTerminal() []Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Job
	for _, id := range t.order {
		if j := t.jobs[id].job; !j.Env.State.Terminal() {
			out = append(out, j)
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
	m.t.apply(m.t.stamp(rec))
	return nil
}

// Get implements JobStore; results live in memory, so it never fails.
func (m *Memory) Get(id string) (Job, bool, error) {
	j, ok := m.t.get(id)
	return j, ok, nil
}

// Events implements JobStore.
func (m *Memory) Events(id string, after int64) ([]events.Event, <-chan struct{}, bool) {
	return m.t.since(id, after)
}

// List implements JobStore.
func (m *Memory) List() []Job { return m.t.list() }

// Resolve implements JobStore; results live in memory, so it has
// nothing to read.
func (m *Memory) Resolve(*Job) error { return nil }

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
