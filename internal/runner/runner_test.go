package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"cdsf/internal/tracing"
)

func TestExecExitCodes(t *testing.T) {
	ok := func(ctx context.Context, args []string, stdout, stderr io.Writer) error { return nil }
	help := func(ctx context.Context, args []string, stdout, stderr io.Writer) error { return flag.ErrHelp }
	boom := func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
		return errors.New("boom")
	}
	var stderr bytes.Buffer
	if code := Exec("t", nil, io.Discard, &stderr, ok); code != 0 {
		t.Errorf("nil error: exit %d", code)
	}
	if code := Exec("t", nil, io.Discard, &stderr, help); code != 0 {
		t.Errorf("flag.ErrHelp: exit %d", code)
	}
	stderr.Reset()
	if code := Exec("t", nil, io.Discard, &stderr, boom); code != 1 {
		t.Errorf("error: exit %d", code)
	}
	if got := stderr.String(); !strings.Contains(got, "t: boom") {
		t.Errorf("stderr = %q, want name-prefixed error", got)
	}
}

func TestExecPassesArgsAndStreams(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Exec("t", []string{"a", "b"}, &stdout, &stderr,
		func(ctx context.Context, args []string, out, errw io.Writer) error {
			if len(args) != 2 || args[0] != "a" || args[1] != "b" {
				t.Errorf("args = %v", args)
			}
			if ctx == nil || ctx.Err() != nil {
				t.Errorf("ctx = %v, err %v", ctx, ctx.Err())
			}
			io.WriteString(out, "on stdout")
			io.WriteString(errw, "on stderr")
			return nil
		})
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if stdout.String() != "on stdout" || stderr.String() != "on stderr" {
		t.Errorf("stdout %q stderr %q", stdout.String(), stderr.String())
	}
}

func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterWorkerFlags(fs)
	err := fs.Parse([]string{"-metrics", "m.json", "-trace", "t.json",
		"-debug-addr", "127.0.0.1:0", "-timeout", "90s", "-workers", "3", "-cache", "on"})
	if err != nil {
		t.Fatal(err)
	}
	if f.MetricsDest != "m.json" || f.TraceDest != "t.json" ||
		f.DebugAddr != "127.0.0.1:0" || f.Timeout != 90*time.Second || f.Workers != 3 || f.CacheSpec != "on" {
		t.Errorf("parsed flags = %+v", f)
	}

	// Plain RegisterFlags must not define -workers (dlssim owns its own)
	// or -cache (dlssim has no solve to cache).
	for _, arg := range [][]string{{"-workers", "3"}, {"-cache", "on"}} {
		fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
		fs2.SetOutput(io.Discard)
		RegisterFlags(fs2)
		if err := fs2.Parse(arg); err == nil {
			t.Errorf("RegisterFlags accepted %s", arg[0])
		}
	}
}

// The observability outputs must be written even when the body fails:
// a failed run's partial metrics and trace are the postmortem record.
func TestRunFlushesObservabilityOnBodyError(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{MetricsDest: dir + "/m.json", TraceDest: dir + "/t.json"}
	bodyErr := errors.New("body failed")
	err := f.Run(context.Background(), "t", io.Discard, func(ctx context.Context, s *Session) error {
		if s.Obs.Metrics == nil || s.Obs.Tracer == nil {
			t.Error("session collectors missing despite -metrics/-trace")
		}
		if s.Obs.Progress != nil {
			t.Error("progress board created without -debug-addr")
		}
		s.Obs.Metrics.Counter("test.before.failure").Add(7)
		return bodyErr
	})
	if !errors.Is(err, bodyErr) {
		t.Fatalf("err = %v, want wrapped body error", err)
	}

	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	data, readErr := os.ReadFile(f.MetricsDest)
	if readErr != nil {
		t.Fatalf("metrics not written on failure: %v", readErr)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file invalid: %v", err)
	}
	if snap.Counters["test.before.failure"] != 7 {
		t.Errorf("counters = %v, want the pre-failure increment", snap.Counters)
	}
	traceData, readErr := os.ReadFile(f.TraceDest)
	if readErr != nil {
		t.Fatalf("trace not written on failure: %v", readErr)
	}
	if !json.Valid(traceData) {
		t.Errorf("trace file is not valid JSON: %s", traceData)
	}
}

// -timeout bounds the body's context with a real deadline.
func TestRunAppliesTimeout(t *testing.T) {
	f := &Flags{Timeout: time.Millisecond}
	err := f.Run(context.Background(), "t", io.Discard, func(ctx context.Context, s *Session) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("timeout never fired")
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// Without observability flags the session is empty and Run is a thin
// pass-through.
func TestRunBareSession(t *testing.T) {
	f := &Flags{}
	err := f.Run(context.Background(), "t", io.Discard, func(ctx context.Context, s *Session) error {
		if s.Obs != (tracing.Scope{}) {
			t.Errorf("unexpected collectors: %+v", s.Obs)
		}
		if s.Cache != nil {
			t.Error("cache present without -cache")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// -cache builds a session cache from the size spec and rejects garbage
// before the body runs.
func TestRunCacheFlag(t *testing.T) {
	for _, spec := range []string{"on", "default", "64MiB", "1g"} {
		f := &Flags{CacheSpec: spec}
		ran := false
		err := f.Run(context.Background(), "t", io.Discard, func(ctx context.Context, s *Session) error {
			ran = true
			if s.Cache == nil {
				t.Errorf("-cache %s: session cache missing", spec)
			}
			return nil
		})
		if err != nil || !ran {
			t.Fatalf("-cache %s: err %v, ran %v", spec, err, ran)
		}
	}
	f := &Flags{CacheSpec: "not-a-size"}
	err := f.Run(context.Background(), "t", io.Discard, func(ctx context.Context, s *Session) error {
		t.Error("body ran despite a bad -cache spec")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "-cache") {
		t.Fatalf("bad spec error = %v", err)
	}
}

// -debug-addr starts the live endpoints, announces readiness on stderr,
// serves the session's own progress board at /progress, and shuts the
// server down after the body returns.
func TestRunDebugServerLifecycle(t *testing.T) {
	var stderr bytes.Buffer
	f := &Flags{DebugAddr: "127.0.0.1:0"}
	err := f.Run(context.Background(), "t", &stderr, func(ctx context.Context, s *Session) error {
		if s.Obs.Metrics == nil || s.Obs.Tracer == nil || s.Obs.Progress == nil {
			t.Errorf("debug-addr run should create every collector: %+v", s.Obs)
			return nil
		}
		s.Obs.Progress.PlanCases(3)
		s.Obs.Progress.CaseDone()
		url := strings.TrimSpace(strings.TrimPrefix(stderr.String(), "t: debug endpoints on "))
		resp, err := http.Get(url + "progress")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var snap tracing.ProgressSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			return err
		}
		if snap.Cases != (tracing.Counts{Done: 1, Planned: 3}) {
			t.Errorf("/progress cases = %+v, want the session board's 1/3", snap.Cases)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stderr.String(); !strings.Contains(got, "debug endpoints on http://127.0.0.1:") {
		t.Errorf("no readiness line on stderr: %q", got)
	}
}

// A busy debug address surfaces the listen error and skips the body.
func TestRunDebugServerStartFailure(t *testing.T) {
	f := &Flags{DebugAddr: "256.256.256.256:0"}
	ran := false
	err := f.Run(context.Background(), "t", io.Discard, func(ctx context.Context, s *Session) error {
		ran = true
		return nil
	})
	if err == nil {
		t.Fatal("bad debug address accepted")
	}
	if ran {
		t.Error("body ran despite debug-server start failure")
	}
}
