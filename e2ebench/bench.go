package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cdsf/internal/cache"
)

// clients is the number of closed-loop callers. Each waits for its own
// job before sending the next, and the host has two CPUs.
const clients = 2

// launches is how many times set-up runs per run; setup_s is the median.
const launches = 9

// digestRequests is how many requests per client the stream digest
// covers.
const digestRequests = 64

type runConfig struct {
	w      *workload
	seed   uint64
	window time.Duration
	trace  bool
	bin    string
	work   string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is what one timed window produced.
type window struct {
	start, deadline time.Time
	outcomes        []*outcome // every timed request, client by client in stream order
	cpuTicks        int64      // cdsfd CPU inside the window
	peakKiB         int64
	before, after   counters
}

func benchmark(ctx context.Context, c runConfig) (*summary, error) {
	runDir := filepath.Join(c.work, fmt.Sprintf("run-%s-%d-%d", c.w.name, c.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	h := hostRecord(runDir)
	dig := digest(c.w, c.seed, clients, digestRequests)
	mode := "timed"
	if c.trace {
		mode = "traced"
	}
	fmt.Printf("e2ebench: workload %s, seed %d, %s run, window %s, %d closed-loop clients (%s)\n",
		c.w.name, c.seed, mode, c.window, clients, map[bool]string{true: "SSE follow", false: "polling"}[c.w.follow])
	fmt.Printf("why: %s\n", c.w.why)
	fmt.Printf("host: nproc %d, cpu %q, %s, WAL dir on %s\n", h.NProc, h.CPU, h.Go, h.WALFS)
	fmt.Printf("request-stream digest: %s (warm-up plus the first %d requests of each client)\n", dig, digestRequests)

	// Set-up: launch on an empty WAL dir until healthy, then warm up.
	// Repeated launches make setup_s a median; the last one serves the
	// window.
	warm := warmupRequests(c.w, c.seed)
	var setups []float64
	var warmFailed []*outcome
	var svc *service
	var cls []*client
	stopAll := func() {
		for _, cl := range cls {
			cl.close()
		}
		if svc != nil {
			svc.stop()
			os.RemoveAll(svc.dir)
			svc = nil
		}
	}
	for k := 0; k < launches; k++ {
		stopAll()
		start := time.Now()
		s, err := startService(ctx, c.bin, filepath.Join(runDir, fmt.Sprintf("launch%d", k)))
		if err != nil {
			return nil, err
		}
		svc = s
		cls = make([]*client, clients)
		for i := range cls {
			cls[i] = newClient(svc.base, c.w.follow)
		}
		for i, rq := range warm {
			if o := cls[i%clients].do(ctx, rq); o.err != nil {
				warmFailed = append(warmFailed, o)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer stopAll()

	win, err := runWindow(ctx, c, svc, cls)
	if err != nil {
		return nil, err
	}
	// The service is done; stopping it frees the machine for the replay.
	stopAll()

	// Checks: every result, every repeat, and the in-process replay of
	// a sample chosen by request index.
	rc := repeatChecker{}
	for _, o := range win.outcomes {
		if o.err != nil {
			continue
		}
		if o.problem = checkResult(o.rq, o.result); o.problem == "" {
			o.problem = rc.check(o.rq, o.result)
		}
	}
	var tr *tracer
	var pb *probes
	if c.trace {
		tr, pb = &tracer{epoch: win.start}, &probes{}
	}
	rp := &replayer{ctx: ctx, cache: cache.New(cache.Options{}), workers: runtime.NumCPU(), tr: tr}
	var jobs []*replayJob
	replayStart := time.Now()
	for _, o := range replaySample(win.outcomes, c.w.replayN) {
		job, err := rp.replay(jobID(o.rq), o.rq)
		switch {
		case err != nil:
			o.problem = "replay failed: " + err.Error()
		case !bytes.Equal(job.doc, o.result):
			o.problem = "in-process replay produced different result bytes"
		}
		if err == nil && pb != nil {
			if err := pb.run(job); err != nil {
				return nil, fmt.Errorf("probing %s: %w", job.id, err)
			}
		}
		jobs = append(jobs, job)
	}
	replayWall := time.Since(replayStart)

	attempted, failed := len(win.outcomes)+len(warm)*launches, len(warmFailed)
	var problems []string
	for _, o := range warmFailed {
		problems = append(problems, fmt.Sprintf("warm-up %s: %v", o.rq.class, o.err))
	}
	for _, o := range win.outcomes {
		switch {
		case o.err != nil:
			failed++
			problems = append(problems, fmt.Sprintf("%s: %v", jobID(o.rq), o.err))
		case o.problem != "":
			failed++
			problems = append(problems, fmt.Sprintf("%s: %s", jobID(o.rq), o.problem))
		}
	}
	sum := &summary{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("checks: %d requests attempted (%d warm-up), %d failed; %d results replayed in-process in %s\n",
		attempted, len(warm)*launches, failed, len(jobs), replayWall.Round(time.Millisecond))
	for i, p := range problems {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(problems)-10)
			break
		}
		fmt.Printf("  PROGRAM DEFECT: %s\n", p)
	}

	res := resultSet{Workload: c.w.name, Seed: c.seed, Mode: mode, WindowS: c.window.Seconds(),
		Clients: clients, Host: h, Digest: dig, Attempted: attempted, Failed: failed, Problems: problems}
	if !c.trace {
		e2e := endToEnd(win, setups, attempted, failed)
		e2e.print()
		sum.Metrics = e2e.metrics()
		res.Metrics = sum.Metrics
	} else {
		walDir := filepath.Join(runDir, "wal-replay")
		appends, err := walReplay(walDir, jobs, tr)
		if err != nil {
			return nil, fmt.Errorf("replaying WAL appends: %w", err)
		}
		kernels := pb.ops.drillDown()
		clientSpans := clientTrace(win)
		lt := traced{w: c.w, win: win, jobs: jobs, spans: tr.spans,
			pb: pb, appends: appends, kernels: kernels}
		sum.Metrics = lt.report()
		res.Metrics, res.Layers, res.Kernels, res.Predictions = sum.Metrics, lt.layers, kernels, lt.predictions
		spanFile := filepath.Join(c.work, "results", fmt.Sprintf("%s-seed%d-spans.json", c.w.name, c.seed))
		if err := writeJSON(spanFile, map[string][]span{"replay": tr.spans, "clients": clientSpans}); err != nil {
			return nil, err
		}
		fmt.Printf("span file: %s\n", spanFile)
	}
	resFile := filepath.Join(c.work, "results", fmt.Sprintf("%s-seed%d-%s.json", c.w.name, c.seed, mode))
	if err := writeJSON(resFile, res); err != nil {
		return nil, err
	}
	fmt.Printf("result set: %s\n", resFile)
	return sum, nil
}

// runWindow drives the clients for the timed window. Each client takes
// requests from its own stream and waits for each job before sending
// the next; a job still in flight at the deadline is finished (and
// checked) but does not count towards latency or throughput.
func runWindow(ctx context.Context, c runConfig, svc *service, cls []*client) (*window, error) {
	win := &window{}
	var err error
	if c.trace {
		if win.before, err = scrape(ctx, svc.base); err != nil {
			return nil, fmt.Errorf("scraping counters: %w", err)
		}
	}
	cpu0, err := cpuTicks(svc.pid())
	if err != nil {
		return nil, err
	}
	win.start = time.Now()
	win.deadline = win.start.Add(c.window)
	per := make([][]*outcome, len(cls))
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := newStream(c.w, c.seed, i)
			for time.Now().Before(win.deadline) && ctx.Err() == nil {
				rq := s.take()
				o := cls[i].do(ctx, rq)
				if c.trace && traceSelected(rq) {
					o.recordSpans()
				}
				per[i] = append(per[i], o)
			}
		}(i)
	}
	select {
	case <-time.After(time.Until(win.deadline)):
	case <-ctx.Done():
	}
	cpu1, cpuErr := cpuTicks(svc.pid())
	wg.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	win.cpuTicks = cpu1 - cpu0
	if win.peakKiB, err = peakRSSKiB(svc.pid()); err != nil {
		return nil, err
	}
	if c.trace {
		if win.after, err = scrape(ctx, svc.base); err != nil {
			return nil, fmt.Errorf("scraping counters: %w", err)
		}
	}
	for _, p := range per {
		win.outcomes = append(win.outcomes, p...)
	}
	return win, nil
}

// traceSelected picks about half the requests of a traced run for
// client spans, by request index, so the other half measures the
// untraced latency in the same window.
func traceSelected(rq *request) bool {
	r := newRNG(uint64(rq.index), "trace", rq.client)
	return r.next()&1 == 0
}

func jobID(rq *request) string {
	if rq.client < 0 {
		return fmt.Sprintf("warmup-%d", rq.index)
	}
	return fmt.Sprintf("c%d-%d", rq.client, rq.index)
}

// replaySample picks up to n finished requests in stream order,
// alternating clients index by index.
func replaySample(outs []*outcome, n int) []*outcome {
	byClient := map[int][]*outcome{}
	for _, o := range outs {
		byClient[o.rq.client] = append(byClient[o.rq.client], o)
	}
	var sample []*outcome
	for idx := 0; len(sample) < n; idx++ {
		more := false
		for cl := 0; cl < clients; cl++ {
			list := byClient[cl]
			if idx >= len(list) {
				continue
			}
			more = true
			if o := list[idx]; o.err == nil && o.result != nil && len(sample) < n {
				sample = append(sample, o)
			}
		}
		if !more {
			break
		}
	}
	return sample
}

// host is the record of the machine a result set was measured on.
type host struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu_model"`
	Go    string `json:"go"`
	WALFS string `json:"wal_filesystem"`
}

func hostRecord(dir string) host {
	h := host{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), WALFS: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The filesystem holding the WAL dir: the longest mount point that
	// prefixes it.
	if data, err := os.ReadFile("/proc/mounts"); err == nil {
		best := -1
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
				best, h.WALFS = len(mp), f[2]
			}
		}
	}
	return h
}

// resultSet is the per-run record written under results/.
type resultSet struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Mode        string            `json:"mode"`
	WindowS     float64           `json:"window_s"`
	Clients     int               `json:"clients"`
	Host        host              `json:"host"`
	Digest      string            `json:"request_digest"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Problems    []string          `json:"problems,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Layers      []layerRow        `json:"layers,omitempty"`
	Kernels     []kernelStat      `json:"kernels,omitempty"`
	Predictions []string          `json:"predictions,omitempty"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
