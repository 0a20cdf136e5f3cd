package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"cdsf/internal/runner"
)

// helperEnv re-executes this test binary as the real ratool CLI, so the
// signal tests exercise the full runner.Exec path in a child process.
const helperEnv = "RATOOL_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		os.Exit(runner.Exec("ratool", os.Args[1:], os.Stdout, os.Stderr, run))
	}
	os.Exit(m.Run())
}

func runArgs(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

func TestRunSmoke(t *testing.T) {
	out, err := runArgs("-heuristic", "greedy", "-optimum=false")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "greedy") {
		t.Errorf("output lacks heuristic row:\n%s", out)
	}
	// Synthetic instance path.
	if _, err := runArgs("-apps", "3", "-type1", "3", "-type2", "4",
		"-heuristic", "greedy", "-optimum=false", "-seed", "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs("-heuristic", "nope"); err == nil {
		t.Error("unknown heuristic accepted")
	}
	if _, err := runArgs("-no-such-flag"); err == nil {
		t.Error("unknown flag accepted")
	}
}

// A failure after the observability session is up must still write the
// -metrics and -trace outputs before the nonzero exit.
func TestRunErrorStillFlushesObservability(t *testing.T) {
	dir := t.TempDir()
	mpath, tpath := dir+"/m.json", dir+"/t.json"
	_, err := runArgs("-heuristic", "nope", "-metrics", mpath, "-trace", tpath)
	if err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	for _, path := range []string{mpath, tpath} {
		data, readErr := os.ReadFile(path)
		if readErr != nil {
			t.Fatalf("%s not written on failure: %v", path, readErr)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not valid JSON: %s", path, data)
		}
	}
}

// -timeout cancels a long search with a deadline error and no table.
func TestRunTimeoutCancelsSearch(t *testing.T) {
	out, err := runArgs("-apps", "7", "-type1", "24", "-type2", "32",
		"-heuristic", "exhaustive", "-optimum=false", "-timeout", "1ms")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if strings.Contains(out, "exhaustive") {
		t.Errorf("cancelled run still printed a result table:\n%s", out)
	}
}

// Acceptance: SIGINT mid-search exits nonzero within a bounded drain
// and still flushes the -metrics output.
func TestSigintCancelsAndFlushesMetrics(t *testing.T) {
	dir := t.TempDir()
	mpath := dir + "/metrics.json"
	// A search space of ~96^9 allocations: effectively unbounded without
	// the signal. -debug-addr readiness on stderr marks "body started".
	cmd := exec.Command(os.Args[0],
		"-apps", "9", "-type1", "32", "-type2", "64",
		"-heuristic", "exhaustive", "-optimum=false",
		"-metrics", mpath, "-debug-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		var all strings.Builder
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line + "\n")
			if strings.Contains(line, "debug endpoints on") {
				select {
				case ready <- line:
				default:
				}
			}
		}
		select {
		case ready <- "EOF: " + all.String():
		default:
		}
	}()
	select {
	case line := <-ready:
		if strings.HasPrefix(line, "EOF:") {
			t.Fatalf("child exited before readiness: %s", line)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("child never announced readiness")
	}

	// Let the exhaustive scan get going, then interrupt it.
	time.Sleep(200 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
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
			t.Errorf("exit code %d, want 1", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("child did not drain within 30s of SIGINT")
	}

	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("metrics not flushed after SIGINT: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("flushed metrics invalid: %v\n%s", err, data)
	}
}

// TestGapColumnPinned pins the Gap column of a synthetic 10-application
// instance on which tabu finds an allocation whose phi_1 lies 1e-14
// above exhaustive's: the two tie within exhaustive's tolerance
// (exhaustive takes the tied allocation with the lower expected
// makespan), so tabu's gap is 0.00, not -0.00.
func TestGapColumnPinned(t *testing.T) {
	out, err := runArgs("-apps", "10", "-type1", "16", "-type2", "32", "-deadline", "3000", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"dag-greedy": "100.00", "exhaustive": "0.00", "greedy": "100.00", "heft": "99.39",
		"minmin": "100.00", "naive": "50.27", "tabu": "0.00", "twophase": "42.01",
	}
	got := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			if _, ok := want[f[0]]; ok {
				got[f[0]] = f[len(f)-1]
			}
		}
	}
	for name, gap := range want {
		if got[name] != gap {
			t.Errorf("%s: gap %q, pinned %q\n%s", name, got[name], gap, out)
		}
	}
}
