package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cdsf/internal/dls"
	"cdsf/internal/ra"
)

func cancelScenario(t *testing.T) Scenario {
	t.Helper()
	fac, err := dls.ByName("FAC")
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Name: "test", IM: ra.Greedy{}, RAS: []dls.Technique{fac}}
}

// A pre-cancelled context aborts RunScenarioContext before any Stage-II
// case completes, wrapping the cause.
func TestRunScenarioContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := testFramework()
	_, err := f.RunScenarioContext(ctx, cancelScenario(t), testCases(f), quickCfg(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// SimExecutor must forward its context into the Stage-II fan-out.
func TestSimExecutorCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := testFramework()
	fac, _ := dls.ByName("FAC")
	ex := SimExecutor{Technique: fac, Config: quickCfg(1)}
	al, err := ra.SolveContext(context.Background(), ra.Greedy{}, &ra.Problem{
		Sys: f.Sys, Batch: f.Batch, Deadline: f.Deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Execute(ctx, f.Sys, f.Batch, al, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The cancellation error names the case progress so an interrupted run
// is diagnosable.
func TestRunScenarioContextPartialProgressMessage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := testFramework()
	_, err := f.RunScenarioContext(ctx, cancelScenario(t), testCases(f), quickCfg(1))
	if err == nil {
		t.Fatal("cancelled scenario succeeded")
	}
	if !strings.Contains(err.Error(), "cancel") {
		t.Errorf("error %q does not mention cancellation", err)
	}
}
