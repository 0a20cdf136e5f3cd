package server

import (
	"fmt"
	"net/http"

	"cdsf/internal/api"
	"cdsf/internal/events"
)

// This file serves each job's event log, which the store derives from
// the job's lifecycle records:
//
//	GET /v1/jobs/{id}/events           the log as a JSON array
//	GET /v1/jobs/{id}/events?follow=1  Server-Sent Events: replay then
//	                                   live, id: = sequence number,
//	                                   Last-Event-ID resumes
//
// The SSE resume contract: every frame carries the event's sequence
// number as its SSE id, so a client that reconnects with the standard
// Last-Event-ID header (what EventSource does automatically, and what
// a curl loop can pass by hand) first replays the retained log past
// that sequence and then goes live. If the bounded log trimmed past the
// client's cursor, the replay starts at the oldest retained event and
// the client observes the gap in the seq numbers — bounded memory is
// chosen over unbounded replay. The stream ends at the job's terminal
// event, which is always the last frame.

// handleJobEvents serves one job's event log, as JSON or as SSE.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, _, ok := s.store.Events(id, 0); !ok {
		writeError(w, http.StatusNotFound, api.ErrNotFound, fmt.Sprintf("no job %q", id))
		return
	}
	switch q := r.URL.Query().Get("follow"); q {
	case "", "0", "false":
		evs, _, _ := s.store.Events(id, 0)
		if evs == nil {
			evs = []events.Event{}
		}
		writeJSON(w, http.StatusOK, evs)
	case "1", "true":
		s.follow(w, r, id)
	default:
		writeError(w, http.StatusBadRequest, api.ErrBadRequest, fmt.Sprintf("follow=%q (want 0 or 1)", q))
	}
}

// follow streams a job's event log as SSE until its terminal event or
// until the client disconnects. Each pass writes the events past the
// cursor and then waits for the store's wake channel; no store lock is
// held while writing, so a stalled client never delays the job.
func (s *Server) follow(w http.ResponseWriter, r *http.Request, id string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, api.ErrInternal, "streaming unsupported by this connection")
		return
	}
	// Resume cursor: the standard Last-Event-ID header (sent by
	// EventSource on reconnect) wins; ?after= is the curl-friendly
	// spelling of the same thing.
	last := events.ParseLastEventID(r.Header.Get("Last-Event-ID"))
	if last == 0 {
		last = events.ParseLastEventID(r.URL.Query().Get("after"))
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for {
		evs, wake, _ := s.store.Events(id, last)
		for _, ev := range evs {
			if err := events.WriteSSE(w, ev); err != nil {
				return
			}
			last = ev.Seq
		}
		fl.Flush()
		if wake == nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}
