package events

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestWriteSSEFrame(t *testing.T) {
	ev := Event{Seq: 1, Time: time.Date(2026, 1, 2, 3, 4, 6, 0, time.UTC),
		Job: "job-9", Type: TypeStarted, Detail: "kind=solve"}

	var buf bytes.Buffer
	if err := WriteSSE(&buf, ev); err != nil {
		t.Fatal(err)
	}
	frame := buf.String()
	if !strings.HasPrefix(frame, "id: 1\nevent: started\ndata: ") || !strings.HasSuffix(frame, "\n\n") {
		t.Fatalf("malformed frame:\n%q", frame)
	}
	dataLine := strings.TrimSuffix(strings.SplitN(frame, "data: ", 2)[1], "\n\n")
	var round Event
	if err := json.Unmarshal([]byte(dataLine), &round); err != nil {
		t.Fatalf("data payload not JSON: %v", err)
	}
	if round != ev {
		t.Errorf("round-tripped event %+v != %+v", round, ev)
	}
}

func TestParseLastEventID(t *testing.T) {
	for in, want := range map[string]int64{
		"": 0, "7": 7, " 12 ": 12, "-3": 0, "junk": 0, "9999999999": 9999999999,
	} {
		if got := ParseLastEventID(in); got != want {
			t.Errorf("ParseLastEventID(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestTerminalTypes(t *testing.T) {
	for _, tt := range []Type{TypeDone, TypeFailed, TypeCancelled, TypeDrained} {
		if !tt.Terminal() {
			t.Errorf("%s not terminal", tt)
		}
	}
	for _, tt := range []Type{TypeAccepted, TypeQueued, TypeStarted, TypeProgress, TypeCacheResultHit, TypeCacheWarm} {
		if tt.Terminal() {
			t.Errorf("%s terminal", tt)
		}
	}
}
