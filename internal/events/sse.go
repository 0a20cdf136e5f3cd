package events

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements the Server-Sent Events wire encoding of a job's
// event log (RFC-less but standardized in WHATWG HTML "server-sent
// events"). Each event is one frame:
//
//	id: <seq>
//	event: <type>
//	data: <event JSON>
//	<blank line>
//
// The id line carries the event's sequence number, so a client (or
// curl -N | a reconnect loop) that reconnects with the standard
// Last-Event-ID request header resumes exactly where it dropped: the
// server replays the log past that sequence number and then goes live.
// The data payload is the same Event JSON the non-streaming endpoint
// returns, so the two views of a log are interchangeable.

// WriteSSE writes one event as an SSE frame. Event JSON never contains
// a raw newline (encoding/json escapes them), so the frame is always a
// single data line.
func WriteSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// ParseLastEventID parses a Last-Event-ID header (or ?after= query)
// value into a sequence number. Empty or malformed values mean 0 —
// stream from the beginning — because a resuming client with a
// corrupt cursor is better served the full log than an error.
func ParseLastEventID(s string) int64 {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
