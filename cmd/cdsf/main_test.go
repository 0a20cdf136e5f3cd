package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func runArgs(ctx context.Context, args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(ctx, args, &stdout, &stderr)
	return stdout.String(), err
}

// A full scenario run is seconds of Stage-II simulation, so the
// end-to-end smoke uses a reduced repetition count.
func TestRunSmoke(t *testing.T) {
	out, err := runArgs(context.Background(), "-scenario", "1", "-reps", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Stage I", "Stage II", "System robustness"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if _, err := runArgs(context.Background(), "-scenario", "9"); err == nil {
		t.Error("scenario 9 accepted")
	}
	if _, err := runArgs(context.Background(), "-no-such-flag"); err == nil {
		t.Error("unknown flag accepted")
	}
}

// Cancellation aborts the framework run and suppresses the report.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := runArgs(ctx, "-scenario", "1", "-reps", "2")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if strings.Contains(out, "System robustness") {
		t.Errorf("cancelled run still printed the report:\n%s", out)
	}
}

func TestRunTimeout(t *testing.T) {
	_, err := runArgs(context.Background(), "-scenario", "4", "-timeout", "1ms")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestBuildScenarioPaper(t *testing.T) {
	for n := 1; n <= 4; n++ {
		sc, err := buildScenario(n, "", "")
		if err != nil {
			t.Fatalf("scenario %d: %v", n, err)
		}
		if sc.IM == nil || len(sc.RAS) == 0 {
			t.Errorf("scenario %d incomplete", n)
		}
	}
	if _, err := buildScenario(0, "", ""); err == nil {
		t.Error("scenario 0 accepted")
	}
	if _, err := buildScenario(5, "", ""); err == nil {
		t.Error("scenario 5 accepted")
	}
}

func TestBuildScenarioCustom(t *testing.T) {
	sc, err := buildScenario(0, "tabu", "FAC,AF")
	if err != nil {
		t.Fatal(err)
	}
	if sc.IM.Name() != "tabu" {
		t.Errorf("IM = %s", sc.IM.Name())
	}
	if len(sc.RAS) != 2 || sc.RAS[0].Name != "FAC" || sc.RAS[1].Name != "AF" {
		t.Errorf("RAS = %v", sc.RAS)
	}
	// Custom RAS with default IM.
	sc2, err := buildScenario(0, "", "STATIC")
	if err != nil {
		t.Fatal(err)
	}
	if sc2.IM.Name() != "exhaustive" {
		t.Errorf("default IM = %s", sc2.IM.Name())
	}
	if _, err := buildScenario(0, "bogus", ""); err == nil {
		t.Error("unknown heuristic accepted")
	}
	if _, err := buildScenario(0, "greedy", "NOPE"); err == nil {
		t.Error("unknown technique accepted")
	}
}
