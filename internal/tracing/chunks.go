package tracing

import (
	"fmt"

	"cdsf/internal/metrics"
	"cdsf/internal/report"
)

// This file holds the simulated-time side of tracing: a run's chunk
// log, the per-worker lanes it becomes in a trace, the busy/idle/
// overhead accounting those lanes sum to, and the ASCII Gantt chart of
// the same log.

// Chunk is one executed chunk on a simulated-time worker lane: the
// simulator's chunk log entry (sim.Result.Chunks).
type Chunk struct {
	// Worker indexes the lane.
	Worker int
	// Start is the dispatch time, before the scheduling overhead.
	Start float64
	// Size is the number of iterations in the chunk.
	Size int
	// Elapsed is the execution time after the overhead.
	Elapsed float64
}

// AddWorkerLanes emits the simulated-time timeline of one run's chunk
// log under the given scope: per chunk an "overhead" span and a "busy"
// span, plus "idle" spans filling any gap between one chunk's end and
// the worker's next dispatch. Lanes are named scope + "/w<worker>", so
// a hierarchical scope ("scenario/case/app") yields the scenario ->
// case -> app -> chunk span hierarchy. Per lane, busy + overhead + idle
// sums to the worker's span from first dispatch to last completion —
// the same accounting Analyze reports. It is a no-op on a nil
// receiver.
func (t *Tracer) AddWorkerLanes(scope string, chunks []Chunk, overhead float64) {
	if t == nil || len(chunks) == 0 {
		return
	}
	// Group chunk indices per worker preserving dispatch order (the
	// simulator logs chunks in event order, which is start-ordered per
	// worker).
	perWorker := map[int][]int{}
	order := []int{}
	for i, c := range chunks {
		if _, seen := perWorker[c.Worker]; !seen {
			order = append(order, c.Worker)
		}
		perWorker[c.Worker] = append(perWorker[c.Worker], i)
	}
	for _, w := range order {
		lane := laneName(scope, w)
		prevEnd := -1.0
		for _, i := range perWorker[w] {
			c := chunks[i]
			if prevEnd >= 0 && c.Start > prevEnd {
				t.Add(Span{Clock: Sim, Lane: lane, Name: "idle", Cat: "idle",
					Start: prevEnd, Dur: c.Start - prevEnd})
			}
			if overhead > 0 {
				t.Add(Span{Clock: Sim, Lane: lane, Name: "dispatch", Cat: "overhead",
					Start: c.Start, Dur: overhead})
			}
			t.Add(Span{Clock: Sim, Lane: lane, Name: chunkName(c.Size), Cat: "busy",
				Start: c.Start + overhead, Dur: c.Elapsed})
			prevEnd = c.Start + overhead + c.Elapsed
		}
	}
}

// laneName formats a worker lane under a scope. Workers are
// zero-padded to two digits so lexicographic lane order matches
// numeric worker order for the group sizes the paper uses.
func laneName(scope string, worker int) string {
	if scope == "" {
		scope = "run"
	}
	return fmt.Sprintf("%s/w%02d", scope, worker)
}

// chunkName labels a busy span with its chunk size.
func chunkName(size int) string { return fmt.Sprintf("chunk[%d]", size) }

// WorkerSummary aggregates one worker's activity in a run.
type WorkerSummary struct {
	Worker int
	// Chunks is the number of chunks the worker executed.
	Chunks int
	// Iterations is the number of iterations executed.
	Iterations int
	// Busy is the total execution time (excluding dispatch overhead).
	Busy float64
	// Overhead is the total dispatch overhead charged (chunks * h).
	Overhead float64
	// Idle is span - busy - overhead, where span runs from the worker's
	// first dispatch to its last completion.
	Idle float64
	// FirstStart and LastEnd delimit the worker's activity.
	FirstStart, LastEnd float64
}

// Analysis summarizes a whole run's chunk log.
type Analysis struct {
	Workers []WorkerSummary
	// TotalChunks and TotalIterations aggregate the log.
	TotalChunks, TotalIterations int
	// MeanChunkSize is TotalIterations / TotalChunks.
	MeanChunkSize float64
	// BusyEfficiency is total busy time over total worker-span time —
	// 1 means no worker ever waited.
	BusyEfficiency float64
}

// Analyze builds per-worker summaries from a chunk log (as produced by
// sim.RunContext with CollectChunks) and the per-chunk overhead h used
// in the run. It returns an error on an empty log.
func Analyze(chunks []Chunk, workers int, overhead float64) (*Analysis, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("tracing: empty chunk log")
	}
	if workers <= 0 {
		return nil, fmt.Errorf("tracing: %d workers", workers)
	}
	ws := make([]WorkerSummary, workers)
	for i := range ws {
		ws[i].Worker = i
		ws[i].FirstStart = -1
	}
	a := &Analysis{}
	for _, c := range chunks {
		if c.Worker < 0 || c.Worker >= workers {
			return nil, fmt.Errorf("tracing: chunk names worker %d of %d", c.Worker, workers)
		}
		w := &ws[c.Worker]
		w.Chunks++
		w.Iterations += c.Size
		w.Busy += c.Elapsed
		w.Overhead += overhead
		if w.FirstStart < 0 || c.Start < w.FirstStart {
			w.FirstStart = c.Start
		}
		if end := c.Start + overhead + c.Elapsed; end > w.LastEnd {
			w.LastEnd = end
		}
		a.TotalChunks++
		a.TotalIterations += c.Size
	}
	span, busy := 0.0, 0.0
	for i := range ws {
		w := &ws[i]
		if w.Chunks == 0 {
			w.FirstStart = 0
			continue
		}
		w.Idle = (w.LastEnd - w.FirstStart) - w.Busy - w.Overhead
		if w.Idle < 0 {
			w.Idle = 0
		}
		span += w.LastEnd - w.FirstStart
		busy += w.Busy
	}
	a.Workers = ws
	a.MeanChunkSize = float64(a.TotalIterations) / float64(a.TotalChunks)
	if span > 0 {
		a.BusyEfficiency = busy / span
	}
	return a, nil
}

// Record publishes the analysis to a metrics registry under the given
// name prefix (e.g. "trace"): per-worker busy/idle/overhead gauges
// plus aggregate chunk and iteration counters, so the chunk-log
// summary lands in the same -metrics output as the runtime counters.
// A nil registry is a no-op.
func (a *Analysis) Record(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + ".chunks").Add(int64(a.TotalChunks))
	reg.Counter(prefix + ".iterations").Add(int64(a.TotalIterations))
	reg.Gauge(prefix + ".mean_chunk_size").Set(a.MeanChunkSize)
	reg.Gauge(prefix + ".busy_efficiency").Set(a.BusyEfficiency)
	for _, w := range a.Workers {
		p := fmt.Sprintf("%s.worker%02d", prefix, w.Worker)
		reg.Gauge(p + ".busy").Set(w.Busy)
		reg.Gauge(p + ".idle").Set(w.Idle)
		reg.Gauge(p + ".overhead").Set(w.Overhead)
		reg.Counter(p + ".chunks").Add(int64(w.Chunks))
	}
}

// BuildGantt renders a chunk log as an ASCII Gantt chart: one lane per
// worker, '#' for execution and 'o' for the dispatch overhead ahead of
// each chunk — the terminal twin of the Chrome-trace worker lanes.
func BuildGantt(title string, chunks []Chunk, workers int, overhead float64) *report.Gantt {
	g := report.NewGantt(title, workers)
	for _, c := range chunks {
		if overhead > 0 {
			g.Add(c.Worker, c.Start, c.Start+overhead, 'o')
		}
		g.Add(c.Worker, c.Start+overhead, c.Start+overhead+c.Elapsed, '#')
	}
	return g
}
