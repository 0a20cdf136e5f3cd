package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/sim"
	"cdsf/internal/stats"
	"cdsf/internal/tracing"
)

// Acceptance: a seeded dlssim run with -trace writes valid Chrome Trace
// Event JSON whose per-worker simulated-time lanes account for exactly
// the busy/overhead/idle time tracing.Analyze reports for the same run,
// and the run's stdout is bit-identical with tracing off or on.
func TestRunTraceAcceptance(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/out.json"
	chunksPrefix := dir + "/chunks"
	const (
		workers  = 3
		overhead = 0.5
	)
	doRun := func(traceDest string) (string, error) {
		args := []string{"-iters", "256", "-serial", "8", "-workers", "3",
			"-avail", "0.5:0.5,1:0.5", "-model", "markov", "-interval", "50",
			"-tech", "FAC", "-overhead", "0.5", "-reps", "3", "-seed", "9",
			"-chunks", chunksPrefix}
		if traceDest != "" {
			args = append(args, "-trace", traceDest)
		}
		return runArgs(args...)
	}
	plain, err := doRun("")
	if err != nil {
		t.Fatal(err)
	}
	traced, err := doRun(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("stdout differs with -trace on:\n--- off ---\n%s--- on ---\n%s", plain, traced)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("-trace output is not valid Chrome trace JSON: %v", err)
	}

	// Resolve simulated-time (pid 2) thread ids to lane names, then sum
	// the duration events per worker lane and category.
	lanes := map[int]string{}
	for _, e := range file.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" && e.PID == 2 {
			if name, ok := e.Args["name"].(string); ok {
				lanes[e.TID] = name
			}
		}
	}
	workerLane := regexp.MustCompile(`^fac/w(\d\d)$`)
	type sums struct{ busy, overhead, idle float64 }
	perWorker := map[int]*sums{}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" || e.PID != 2 {
			continue
		}
		m := workerLane.FindStringSubmatch(lanes[e.TID])
		if m == nil {
			continue
		}
		w := int(m[1][0]-'0')*10 + int(m[1][1]-'0')
		if perWorker[w] == nil {
			perWorker[w] = &sums{}
		}
		switch e.Cat {
		case "busy":
			perWorker[w].busy += e.Dur
		case "overhead":
			perWorker[w].overhead += e.Dur
		case "idle":
			perWorker[w].idle += e.Dur
		default:
			t.Errorf("unexpected category %q on %s", e.Cat, lanes[e.TID])
		}
	}
	if len(perWorker) != workers {
		t.Fatalf("trace has %d worker lanes, want %d", len(perWorker), workers)
	}

	// The run's chunk log (written by -chunks in the same pass the trace
	// lanes come from) is the reference accounting.
	f, err := os.Open(chunksPrefix + "-fac.csv")
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := readCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	a, err := tracing.Analyze(chunks, workers, overhead)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range a.Workers {
		got := perWorker[ws.Worker]
		if got == nil {
			t.Fatalf("worker %d missing from trace", ws.Worker)
		}
		if math.Abs(got.busy-ws.Busy) > 1e-9 ||
			math.Abs(got.overhead-ws.Overhead) > 1e-9 ||
			math.Abs(got.idle-ws.Idle) > 1e-9 {
			t.Errorf("worker %d lanes sum to busy %v overhead %v idle %v, Analyze says %v %v %v",
				ws.Worker, got.busy, got.overhead, got.idle, ws.Busy, ws.Overhead, ws.Idle)
		}
	}
}

// A -debug-addr run must keep stdout identical too, and its endpoints
// must be live while the process is up (exercised in internal/tracing;
// here we only check the flag path end to end).
func TestRunDebugAddrStdoutIdentical(t *testing.T) {
	doRun := func(debugAddr string) (string, error) {
		args := []string{"-iters", "64", "-serial", "4", "-workers", "2",
			"-model", "static", "-tech", "SS", "-overhead", "0.5",
			"-reps", "2", "-seed", "3"}
		if debugAddr != "" {
			args = append(args, "-debug-addr", debugAddr)
		}
		return runArgs(args...)
	}
	plain, err := doRun("")
	if err != nil {
		t.Fatal(err)
	}
	withDebug, err := doRun("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if plain != withDebug {
		t.Errorf("stdout differs with -debug-addr on:\n--- off ---\n%s--- on ---\n%s", plain, withDebug)
	}
}

// readCSV parses a chunk log written by writeCSV (a header line
// followed by worker,start,size,elapsed rows).
func readCSV(r io.Reader) ([]tracing.Chunk, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || sc.Text() != "worker,start,size,elapsed" {
		return nil, fmt.Errorf("missing chunk CSV header")
	}
	var chunks []tracing.Chunk
	for sc.Scan() {
		parts := strings.Split(sc.Text(), ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("row %q: %d fields (want 4)", sc.Text(), len(parts))
		}
		var c tracing.Chunk
		var errs [4]error
		c.Worker, errs[0] = strconv.Atoi(parts[0])
		c.Start, errs[1] = strconv.ParseFloat(parts[1], 64)
		c.Size, errs[2] = strconv.Atoi(parts[2])
		c.Elapsed, errs[3] = strconv.ParseFloat(parts[3], 64)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("row %q: %v", sc.Text(), err)
			}
		}
		chunks = append(chunks, c)
	}
	return chunks, sc.Err()
}

func TestWriteCSV(t *testing.T) {
	chunks := []tracing.Chunk{
		{Worker: 1, Start: 5, Size: 10, Elapsed: 2.5},
		{Worker: 0, Start: 0, Size: 20, Elapsed: 4},
	}
	var sb strings.Builder
	if err := writeCSV(&sb, chunks); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0] != "worker,start,size,elapsed" {
		t.Errorf("header = %q", lines[0])
	}
	// Sorted by start time.
	if !strings.HasPrefix(lines[1], "0,0,20,") || !strings.HasPrefix(lines[2], "1,5,10,") {
		t.Errorf("rows not sorted: %v", lines[1:])
	}
}

// writeCSV's float formatting must preserve every bit of Start and
// Elapsed: a real chunk log (irrational-looking simulated times) plus
// adversarial values must read back exactly.
func TestCSVRoundTripBitExact(t *testing.T) {
	fac, err := dls.ByName("FAC")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.RunContext(context.Background(), sim.Config{
		ParallelIters: 500,
		Workers:       4,
		IterTime:      stats.NewNormal(1, 0.2),
		Avail:         availability.Static{PMF: pmf.Point(1)},
		Technique:     fac,
		Overhead:      0.5,
		Seed:          6,
		CollectChunks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks := append(r.Chunks,
		tracing.Chunk{Worker: 0, Start: 1.0 / 3.0, Size: 1, Elapsed: math.Pi},
		tracing.Chunk{Worker: 1, Start: 123456.789012345, Size: 2, Elapsed: 1e-17},
		tracing.Chunk{Worker: 2, Start: math.Nextafter(2, 3), Size: 3, Elapsed: 0.1},
	)
	var sb strings.Builder
	if err := writeCSV(&sb, chunks); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// writeCSV sorts by (start, worker); apply the same order to the
	// input before comparing bit for bit.
	want := append([]tracing.Chunk(nil), chunks...)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].Start != want[j].Start {
			return want[i].Start < want[j].Start
		}
		return want[i].Worker < want[j].Worker
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the log:\n got %+v\nwant %+v", got, want)
	}
}
