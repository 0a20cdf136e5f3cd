package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// runArgs invokes the CLI entry point with the given argument list and
// returns its stdout.
func runArgs(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

func TestParseAvail(t *testing.T) {
	p, err := parseAvail("0.25:0.25,0.5:0.25,1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if math.Abs(p.Mean()-0.6875) > 1e-12 {
		t.Errorf("mean = %v", p.Mean())
	}
	for _, bad := range []string{
		"", "1", "x:1", "1:y", "1:0,2:0", "0.5:0.5,:0.5",
	} {
		if _, err := parseAvail(bad); err == nil {
			t.Errorf("parseAvail(%q) accepted", bad)
		}
	}
}

func TestBuildDist(t *testing.T) {
	for _, name := range []string{"normal", "lognormal", "gamma"} {
		d, err := buildDist(name, 10, 0.3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(d.Mean()-10) > 1e-9 {
			t.Errorf("%s mean = %v", name, d.Mean())
		}
		if math.Abs(math.Sqrt(d.Var())-3) > 1e-9 {
			t.Errorf("%s stddev = %v", name, math.Sqrt(d.Var()))
		}
	}
	e, err := buildDist("exponential", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Mean()-10) > 1e-9 {
		t.Errorf("exponential mean = %v", e.Mean())
	}
	if _, err := buildDist("weibull", 10, 0.3); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := buildDist("normal", -1, 0.3); err == nil {
		t.Error("negative mean accepted")
	}
	if _, err := buildDist("normal", 10, 0); err == nil {
		t.Error("zero cv accepted for normal")
	}
}

func TestRunSmoke(t *testing.T) {
	// End-to-end through the CLI logic with tiny parameters.
	_, err := runArgs("-iters", "64", "-serial", "8", "-workers", "2",
		"-avail", "0.5:0.5,1:0.5", "-model", "markov", "-interval", "50",
		"-tech", "FAC,AF", "-overhead", "0.5", "-reps", "3",
		"-deadline", "100", "-hist", "-schedule")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs("-iters", "64", "-workers", "2", "-dist", "gamma",
		"-profile", "peaked", "-model", "static", "-tech", "SS",
		"-overhead", "0", "-reps", "2", "-gantt"); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs("-iters", "64", "-workers", "2", "-model", "bogus",
		"-reps", "2"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := runArgs("-iters", "64", "-workers", "2", "-model", "static",
		"-tech", "NOPE", "-reps", "2"); err == nil {
		t.Error("unknown technique accepted")
	}
	// dlssim solves nothing a cache could replay and writes no log, so
	// it registers neither -cache nor -log.
	for _, args := range [][]string{{"-no-such-flag"}, {"-cache", "on"}, {"-log", "-"}} {
		if _, err := runArgs(args...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: err = %v, want an undefined-flag error", args, err)
		}
	}
}

func TestRunMetricsOutput(t *testing.T) {
	// A -metrics run writes a JSON metrics file with populated sim and
	// trace sections.
	path := t.TempDir() + "/metrics.json"
	if _, err := runArgs("-iters", "64", "-serial", "4", "-workers", "2",
		"-avail", "0.5:0.5,1:0.5", "-model", "markov", "-interval", "50",
		"-tech", "FAC", "-overhead", "0.5", "-reps", "3",
		"-metrics", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file not valid JSON: %v\n%s", err, data)
	}
	if snap.Counters["sim.runs"] == 0 {
		t.Errorf("sim.runs missing from metrics: %v", snap.Counters)
	}
	if snap.Counters["trace.fac.chunks"] == 0 {
		t.Errorf("trace summary missing from metrics: %v", snap.Counters)
	}
}

// TestScheduleAgreesWithSimulation checks that -schedule analyzes FSC
// with the iteration sigma the simulation runs it with: FSC's chunk
// count is fixed by N, P, h and sigma, so the schedule table and the
// simulated table must report the same count, for the normal and the
// log-normal iteration times.
func TestScheduleAgreesWithSimulation(t *testing.T) {
	for _, dist := range []string{"normal", "lognormal"} {
		out, err := runArgs("-schedule", "-tech", "FSC", "-dist", dist, "-cv", "0.4", "-reps", "2")
		if err != nil {
			t.Fatal(err)
		}
		// The first FSC row is the schedule table's (Chunks is its
		// second column), the second the simulated table's (fifth).
		var rows [][]string
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == "FSC" {
				rows = append(rows, f)
			}
		}
		if len(rows) != 2 {
			t.Fatalf("%s: %d FSC rows in\n%s", dist, len(rows), out)
		}
		if scheduled, simulated := rows[0][1], rows[1][4]; scheduled+".0" != simulated {
			t.Errorf("%s: FSC schedules %s chunks but runs %s per repetition:\n%s", dist, scheduled, simulated, out)
		}
	}
}
