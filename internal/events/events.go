// Package events is the job-event vocabulary of the cdsfd scheduling
// service: the typed lifecycle events a job's log is made of, and their
// Server-Sent Events wire encoding (sse.go).
//
// The log itself lives in internal/store: every lifecycle record the
// store applies derives the events of this vocabulary, so the record
// stream crash recovery replays is the only lifecycle log. Sequence
// numbers start at 1 and are monotonic per job. The package is standard
// library only and never touches the engines' rng streams or result
// documents.
package events

import (
	"time"

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

// Terminal reports whether the event type ends a job's log: nothing
// follows a terminal event, and followers finish on it.
func (t Type) Terminal() bool {
	switch t {
	case TypeDone, TypeFailed, TypeCancelled, TypeDrained:
		return true
	}
	return false
}

// Event is one log entry. Seq is monotonic per job starting at 1; Time
// is the time of the store record the event derives from. Detail
// carries the human fragment (error message, cache key); Progress (a
// sampled snapshot of the job's progress board) and the warm counters
// are set only on their event types.
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
