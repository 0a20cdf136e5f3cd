package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/runner"
)

// helperEnv re-executes this test binary as the real cdsfd daemon, so
// the signal tests exercise the full runner.Exec path in a child
// process. startDaemon/submitJob below are shared with the crash-
// recovery test in recovery_test.go, which kills -9 these child
// daemons.
const helperEnv = "CDSFD_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		os.Exit(runner.Exec("cdsfd", os.Args[1:], os.Stdout, os.Stderr, run))
	}
	os.Exit(m.Run())
}

func TestRunFlagAndListenErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:0"}, &stdout, &stderr); err == nil {
		t.Error("unlistenable address accepted")
	}
}

func TestRunTimeoutStopsServing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-timeout", "50ms"}, &stdout, &stderr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// -log writes JSON lines to the named file, closed and complete even
// when the run ends in an error.
func TestRunLogToFile(t *testing.T) {
	lpath := t.TempDir() + "/cdsfd.log"
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-timeout", "50ms",
		"-log", lpath, "-log-level", "DEBUG"}, &stdout, &stderr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	data, readErr := os.ReadFile(lpath)
	if readErr != nil {
		t.Fatalf("log not written: %v", readErr)
	}
	var line map[string]any
	if err := json.Unmarshal(data, &line); err != nil || line["level"] != "INFO" || line["msg"] != "draining" {
		t.Errorf("log %q (%v), want the one INFO draining line", data, err)
	}
}

// -log - sends the log to stderr: stdout stays reserved for result
// documents. Lines below -log-level are dropped.
func TestRunLogDashGoesToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-timeout", "50ms",
		"-log", "-", "-log-level", "error"}, &stdout, &stderr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if strings.Contains(stderr.String(), `"msg":"draining"`) {
		t.Errorf("info line written at -log-level error:\n%s", stderr.String())
	}
	stderr.Reset()
	err = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-timeout", "50ms",
		"-log", "-"}, &stdout, &stderr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), `"level":"INFO","msg":"draining"`) {
		t.Errorf("stdout %q stderr %q, want the draining line on stderr only", stdout.String(), stderr.String())
	}
}

// A bad -log-level or an uncreatable -log file fails the run before it
// serves.
func TestRunLogBadLevel(t *testing.T) {
	for _, args := range [][]string{
		{"-log", "-", "-log-level", "loud"},
		{"-log", t.TempDir() + "/no/such/dir/cdsfd.log"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Errorf("%v: err = %v, want a %s error", args, err, args[len(args)-2])
		}
		if strings.Contains(stderr.String(), "cdsfd: serving") {
			t.Errorf("%v: served despite the error:\n%s", args, stderr.String())
		}
	}
}

// startDaemon launches the daemon subprocess and waits for its
// readiness line, returning the base URL and the stderr collector.
func startDaemon(t *testing.T, extraArgs ...string) (*exec.Cmd, string, *strings.Builder) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })

	ready := make(chan string, 1)
	all := &strings.Builder{}
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line + "\n")
			if strings.Contains(line, "job API on http://") {
				select {
				case ready <- line:
				default:
				}
			}
		}
		select {
		case ready <- "EOF":
		default:
		}
	}()
	select {
	case line := <-ready:
		if line == "EOF" {
			t.Fatalf("daemon exited before readiness:\n%s", all.String())
		}
		base := "http://" + strings.TrimSuffix(line[strings.Index(line, "http://")+len("http://"):], "/")
		return cmd, base, all
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never announced readiness")
		return nil, "", nil
	}
}

// submitJob posts a request and returns the accepted job id.
func submitJob(t *testing.T, base, path string, req any) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	var j api.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j.ID
}

// pollState fetches one job's state over HTTP.
func pollState(t *testing.T, base, id string) api.JobState {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j api.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j.State
}

// TestEndToEndOverHTTP drives a real daemon subprocess through a full
// job lifecycle and a clean SIGTERM shutdown with nothing running.
func TestEndToEndOverHTTP(t *testing.T) {
	cmd, base, _ := startDaemon(t)

	id := submitJob(t, base, "/v1/solve", api.SolveRequest{Heuristic: "greedy"})
	deadline := time.Now().Add(30 * time.Second)
	for pollState(t, base, id) != api.JobDone {
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("wait: %v, want exit code 1", err)
	}
}

// Acceptance: SIGTERM with a job running drains within -drain-timeout —
// the running job's context is cancelled, the process exits nonzero,
// and the -metrics output is still flushed with the job counters.
func TestSigtermDrainsAndFlushesMetrics(t *testing.T) {
	dir := t.TempDir()
	mpath := dir + "/metrics.json"
	cmd, base, stderrLog := startDaemon(t,
		"-metrics", mpath, "-drain-timeout", "2s", "-executors", "1", "-queue", "4")

	// An effectively unbounded job: millions of repetitions.
	id := submitJob(t, base, "/v1/simulate", api.SimulateRequest{
		Allocation: []api.Assignment{{Type: 0, Procs: 4}, {Type: 1, Procs: 4}, {Type: 1, Procs: 4}},
		Techniques: []string{"STATIC"},
		Reps:       2_000_000,
	})
	deadline := time.Now().Add(30 * time.Second)
	for pollState(t, base, id) != api.JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("wait: %v, want nonzero exit", err)
		}
		if code := exitErr.ExitCode(); code != 1 {
			t.Errorf("exit code %d, want 1\nstderr:\n%s", code, stderrLog.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
	// -drain-timeout was 2s; the exit must come shortly after (engine
	// teardown and the flush add a little, bounded well under the 30s
	// hard limit above).
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("drain took %v with a 2s -drain-timeout", elapsed)
	}

	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("metrics not flushed after SIGTERM: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("flushed metrics invalid: %v\n%s", err, data)
	}
	if snap.Counters["server.jobs_submitted"] < 1 {
		t.Errorf("flushed metrics lack job counters: %+v", snap.Counters)
	}
	if snap.Counters["server.jobs_cancelled"] < 1 {
		t.Errorf("running job not recorded as cancelled: %+v", snap.Counters)
	}
}

// TestSmokeSSE is the end-to-end smoke for the event log: a real
// daemon subprocess (with -log) serves a seeded solve job's complete
// lifecycle as an SSE stream, with ascending sequence ids ending at
// the terminal event. Run on its own with `make smoke-sse`.
func TestSmokeSSE(t *testing.T) {
	dir := t.TempDir()
	lpath := dir + "/cdsfd.log"
	cmd, base, _ := startDaemon(t, "-log", lpath, "-log-level", "debug")

	id := submitJob(t, base, "/v1/solve", api.SolveRequest{Heuristic: "greedy"})

	// Follow from the start: replay whatever already happened, then
	// stream live until the log ends at the terminal event.
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("follow content type %q", ct)
	}
	var ids []int64
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			ids = append(ids, n)
		case strings.HasPrefix(line, "event: "):
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	if len(ids) == 0 || len(ids) != len(types) {
		t.Fatalf("stream had %d ids and %d event types", len(ids), len(types))
	}
	for i, n := range ids {
		if n != int64(i)+1 {
			t.Fatalf("SSE ids %v, want 1..%d ascending", ids, len(ids))
		}
	}
	for i, want := range []string{"accepted", "queued", "started"} {
		if types[i] != want {
			t.Fatalf("stream opens %v, want accepted/queued/started", types[:3])
		}
	}
	if last := types[len(types)-1]; last != "done" {
		t.Fatalf("stream ended on %q, want done (all types: %v)", last, types)
	}
	if pollState(t, base, id) != api.JobDone {
		t.Error("job not done after its SSE stream finished")
	}

	// Clean shutdown, then the -log file must exist with JSON lines
	// covering the job lifecycle.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	data, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatalf("-log file not written: %v", err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("log line is not valid JSON: %q", line)
		}
	}
	for _, want := range []string{"job accepted", "job started", "job done"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("log missing %q:\n%s", want, data)
		}
	}
}
