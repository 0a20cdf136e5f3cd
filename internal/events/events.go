// Package events is the job-event journal of the cdsfd scheduling
// service: a per-job append-only log of typed lifecycle events with
// monotonic sequence numbers, a bounded cross-job ring (the "flight
// recorder"), and fan-out subscriptions feeding the SSE endpoints.
//
// The shape mirrors internal/metrics and internal/tracing: a Log is
// the top-level collector, a nil *Log (or nil *Journal) is a no-op on
// every method, event recording never touches the engines' rng streams
// or result documents, and the whole package is standard library only
// — so seeded results are bit-identical with events on or off.
//
// Each job owns one Journal. Sequence numbers start at 1 and are
// monotonic per job; the journal is append-only but bounded — when it
// outgrows JournalBound the oldest events are trimmed (FirstSeq moves
// forward), which readers observe as a gap they cannot replay. The
// SSE layer resumes a dropped client from Last-Event-ID by replaying
// the journal tail past that sequence number and then going live.
//
// Subscriptions are drop-not-block: a Record never waits on a slow
// subscriber. When a subscriber's buffer is full the event is counted
// (events.dropped and Subscription.Dropped) and skipped for that
// subscriber; the subscriber detects the sequence gap and re-reads the
// journal to fill it. This keeps the event path non-blocking no matter
// how stalled a client connection is.
package events

import (
	"sync"
	"time"

	"cdsf/internal/metrics"
	"cdsf/internal/tracing"
)

// Type names a job lifecycle event.
type Type string

const (
	// TypeAccepted: the request was admitted and a job id assigned.
	TypeAccepted Type = "accepted"
	// TypeQueued: the job entered the bounded queue.
	TypeQueued Type = "queued"
	// TypeStarted: an executor picked the job up.
	TypeStarted Type = "started"
	// TypeProgress: a sampled snapshot of the job's progress board.
	TypeProgress Type = "progress"
	// TypeCacheResultHit: the job was answered from the result tier of
	// the solve cache without running.
	TypeCacheResultHit Type = "cache_result_hit"
	// TypeCacheWarm: the job finished having reused warm cached
	// evaluation-table distributions (warm_hits/warm_misses carry the
	// counts).
	TypeCacheWarm Type = "cache_warm"
	// TypeCancelled: cancelled by DELETE or a context deadline.
	TypeCancelled Type = "cancelled"
	// TypeDrained: cancelled by server drain (shutdown).
	TypeDrained Type = "drained"
	// TypeDone: finished successfully.
	TypeDone Type = "done"
	// TypeFailed: the engine returned a non-cancellation error.
	TypeFailed Type = "failed"
)

// Terminal reports whether the event type ends a job's journal:
// after a terminal event the journal is closed and followers finish.
func (t Type) Terminal() bool {
	switch t {
	case TypeDone, TypeFailed, TypeCancelled, TypeDrained:
		return true
	}
	return false
}

// Event is one journal entry. Seq is monotonic per job starting at 1;
// Time is the wall clock at Record (the Log's injectable clock, so
// tests pin it). Detail carries the human fragment (error message,
// cache key); Progress (a sampled snapshot of the job's progress
// board) and the warm counters are set only on their event types.
type Event struct {
	Seq        int64                     `json:"seq"`
	Time       time.Time                 `json:"time"`
	Job        string                    `json:"job"`
	Type       Type                      `json:"type"`
	Detail     string                    `json:"detail,omitempty"`
	Progress   *tracing.ProgressSnapshot `json:"progress,omitempty"`
	WarmHits   int64                     `json:"warm_hits,omitempty"`
	WarmMisses int64                     `json:"warm_misses,omitempty"`
}

// Options configures a Log.
type Options struct {
	// JournalBound caps a single job's journal; beyond it the oldest
	// events are trimmed and FirstSeq moves forward. Non-positive means
	// 4096.
	JournalBound int
	// RingBound caps the cross-job flight-recorder ring. Non-positive
	// means 1024.
	RingBound int
	// SubscriberBuffer is each subscription's channel capacity; a
	// subscriber further behind than this starts dropping (and
	// backfills from the journal). Non-positive means 64.
	SubscriberBuffer int
	// Clock supplies event timestamps; nil means time.Now. UTC is
	// applied by Record.
	Clock func() time.Time
	// Metrics receives the events.* counters (recorded, trimmed,
	// dropped); nil disables them.
	Metrics *metrics.Registry
}

// Log is the top-level event collector: it owns one Journal per job
// and the cross-job ring. A nil *Log is a no-op everywhere — Journal
// returns nil, and a nil *Journal no-ops every method.
type Log struct {
	opts Options

	recorded *metrics.Counter
	trimmed  *metrics.Counter
	dropped  *metrics.Counter

	mu       sync.Mutex
	journals map[string]*Journal
	ring     []Event // filled circularly once len == RingBound
	ringNext int
	ringFull bool
}

// NewLog returns an empty event log.
func NewLog(opts Options) *Log {
	if opts.JournalBound <= 0 {
		opts.JournalBound = 4096
	}
	if opts.RingBound <= 0 {
		opts.RingBound = 1024
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 64
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Log{
		opts:     opts,
		recorded: opts.Metrics.Counter("events.recorded"),
		trimmed:  opts.Metrics.Counter("events.trimmed"),
		dropped:  opts.Metrics.Counter("events.dropped"),
		journals: map[string]*Journal{},
	}
}

// Journal returns the named job's journal, creating it on first use.
// A nil log returns nil (the no-op journal).
func (l *Log) Journal(job string) *Journal {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.journals[job]
	if !ok {
		j = &Journal{log: l, job: job, firstSeq: 1, subs: map[*Subscription]struct{}{}}
		l.journals[job] = j
	}
	return j
}

// Lookup returns the named job's journal without creating it, or nil.
func (l *Log) Lookup(job string) *Journal {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.journals[job]
}

// Ring returns the flight recorder: the most recent events across all
// jobs, oldest first, bounded by RingBound. A nil log returns nil.
func (l *Log) Ring() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.ringFull {
		return append([]Event(nil), l.ring[:l.ringNext]...)
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.ringNext:]...)
	out = append(out, l.ring[:l.ringNext]...)
	return out
}

// pushRing folds one event into the cross-job ring.
func (l *Log) pushRing(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ring == nil {
		l.ring = make([]Event, l.opts.RingBound)
	}
	l.ring[l.ringNext] = ev
	l.ringNext++
	if l.ringNext == len(l.ring) {
		l.ringNext = 0
		l.ringFull = true
	}
}

// Journal is one job's append-only event sequence plus its live
// subscribers. All methods are safe for concurrent use; a nil
// *Journal is a no-op.
type Journal struct {
	log *Log
	job string

	mu       sync.Mutex
	firstSeq int64 // seq of events[0]; > 1 once trimmed
	nextSeq  int64 // seqs handed out so far (LastSeq = firstSeq-1+len at rest)
	events   []Event
	subs     map[*Subscription]struct{}
	closed   bool
}

// Record appends one event, filling Seq, Time, and Job, and fans it
// out to subscribers (dropping, never blocking, on a full buffer). It
// returns the assigned sequence number (0 on a nil journal or after
// Close).
func (j *Journal) Record(ev Event) int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0
	}
	j.nextSeq++
	ev.Seq = j.nextSeq
	ev.Time = j.log.opts.Clock().UTC()
	ev.Job = j.job
	j.events = append(j.events, ev)
	if over := len(j.events) - j.log.opts.JournalBound; over > 0 {
		j.events = append(j.events[:0], j.events[over:]...)
		j.firstSeq += int64(over)
		j.log.trimmed.Add(int64(over))
	}
	for s := range j.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			j.log.dropped.Inc()
		}
	}
	j.mu.Unlock()

	j.log.recorded.Inc()
	j.log.pushRing(ev)
	return ev.Seq
}

// Close marks the journal complete: subscriber channels are closed
// (after any buffered events drain) and later Records are no-ops.
// Callers Record the terminal event first, then Close. Idempotent and
// a no-op on nil.
func (j *Journal) Close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	for s := range j.subs {
		close(s.ch)
	}
	j.subs = map[*Subscription]struct{}{}
}

// Closed reports whether Close has been called (false on nil).
func (j *Journal) Closed() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closed
}

// FirstSeq returns the oldest retained sequence number (1 until the
// journal is trimmed; 0 on nil).
func (j *Journal) FirstSeq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.firstSeq
}

// LastSeq returns the newest sequence number recorded so far (0 when
// empty or nil).
func (j *Journal) LastSeq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}

// Snapshot returns a copy of every retained event, oldest first (nil
// on a nil journal).
func (j *Journal) Snapshot() []Event { return j.Since(0) }

// Since returns a copy of the retained events with Seq > after, oldest
// first. Events trimmed from the bounded journal cannot be replayed:
// asking for a sequence older than FirstSeq returns everything
// retained, and the caller observes the gap in the Seq numbering.
func (j *Journal) Since(after int64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	start := 0
	if after >= j.firstSeq {
		start = int(after - j.firstSeq + 1)
	}
	if start >= len(j.events) {
		return nil
	}
	return append([]Event(nil), j.events[start:]...)
}

// Subscription is one follower's live feed. Receive from C; events a
// stalled receiver missed are counted in Dropped, and the channel is
// closed when the journal closes.
type Subscription struct {
	// C delivers events recorded after the subscription was taken. It
	// is closed when the journal closes.
	C <-chan Event

	ch      chan Event
	dropped metrics.Counter
}

// Dropped returns how many events were dropped for this subscriber
// because its buffer was full (each shows up as a Seq gap on C, which
// the reader fills from Since).
func (s *Subscription) Dropped() int64 { return s.dropped.Value() }

// Subscribe atomically snapshots the events with Seq > after and
// registers a live subscription for everything recorded afterwards, so
// no event is lost or duplicated between replay and live delivery. On
// a closed (or nil) journal the returned subscription's channel is
// already closed: the caller replays and finishes. Callers must
// Unsubscribe when done.
func (j *Journal) Subscribe(after int64) ([]Event, *Subscription) {
	s := &Subscription{}
	if j == nil {
		s.ch = make(chan Event)
		close(s.ch)
		s.C = s.ch
		return nil, s
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	start := 0
	if after >= j.firstSeq {
		start = int(after - j.firstSeq + 1)
	}
	var replay []Event
	if start < len(j.events) {
		replay = append([]Event(nil), j.events[start:]...)
	}
	s.ch = make(chan Event, j.log.opts.SubscriberBuffer)
	s.C = s.ch
	if j.closed {
		close(s.ch)
	} else {
		j.subs[s] = struct{}{}
	}
	return replay, s
}

// Unsubscribe removes a subscription taken with Subscribe. Safe to
// call after the journal closed, and a no-op on a nil journal.
func (j *Journal) Unsubscribe(s *Subscription) {
	if j == nil || s == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, s)
}
