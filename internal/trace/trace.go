// Package trace analyzes and exports chunk-level execution logs from
// the Stage-II simulator: per-worker busy/idle accounting, overhead
// breakdowns, and CSV export for external plotting. It is the
// post-mortem side of the runtime substrate — the numbers behind the
// Gantt pictures.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cdsf/internal/metrics"
	"cdsf/internal/report"
	"cdsf/internal/sim"
	"cdsf/internal/tracing"
)

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
// sim.Run with CollectChunks) and the per-chunk overhead h used in the
// run. It returns an error on an empty log.
func Analyze(chunks []sim.ChunkRecord, workers int, overhead float64) (*Analysis, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("trace: empty chunk log")
	}
	if workers <= 0 {
		return nil, fmt.Errorf("trace: %d workers", workers)
	}
	ws := make([]WorkerSummary, workers)
	for i := range ws {
		ws[i].Worker = i
		ws[i].FirstStart = -1
	}
	a := &Analysis{}
	for _, c := range chunks {
		if c.Worker < 0 || c.Worker >= workers {
			return nil, fmt.Errorf("trace: chunk names worker %d of %d", c.Worker, workers)
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

// WriteCSV emits the raw chunk log as CSV (worker, start, size,
// elapsed), sorted by start time, for external tooling. Start and
// Elapsed use the shortest decimal representation that parses back to
// the same float64, so a log written here and re-imported with ReadCSV
// round-trips bit-exactly.
func WriteCSV(w io.Writer, chunks []sim.ChunkRecord) error {
	sorted := append([]sim.ChunkRecord(nil), chunks...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Worker < sorted[j].Worker
	})
	if _, err := io.WriteString(w, "worker,start,size,elapsed\n"); err != nil {
		return err
	}
	for _, c := range sorted {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%s\n", c.Worker,
			strconv.FormatFloat(c.Start, 'g', -1, 64), c.Size,
			strconv.FormatFloat(c.Elapsed, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV parses a chunk log written by WriteCSV (a header line
// followed by worker,start,size,elapsed rows).
func ReadCSV(r io.Reader) ([]sim.ChunkRecord, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty chunk CSV")
	}
	if got := strings.TrimSpace(sc.Text()); got != "worker,start,size,elapsed" {
		return nil, fmt.Errorf("trace: unexpected chunk CSV header %q", got)
	}
	var chunks []sim.ChunkRecord
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("trace: line %d: %d fields (want 4)", line, len(parts))
		}
		worker, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: worker: %v", line, err)
		}
		start, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: start: %v", line, err)
		}
		size, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: size: %v", line, err)
		}
		elapsed, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: elapsed: %v", line, err)
		}
		chunks = append(chunks, sim.ChunkRecord{Worker: worker, Start: start, Size: size, Elapsed: elapsed})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return chunks, nil
}

// ExportSpans emits a chunk log's simulated-time worker lanes
// (busy/overhead/idle spans under scope, as tracing.AddWorkerLanes
// builds them) to a tracer — the post-hoc path for logs loaded with
// ReadCSV; live runs emit the same lanes directly via
// sim.Config.Obs.Tracer. A nil tracer is a no-op.
func ExportSpans(tr *tracing.Tracer, scope string, chunks []sim.ChunkRecord, overhead float64) {
	if tr == nil {
		return
	}
	cs := make([]tracing.Chunk, len(chunks))
	for i, c := range chunks {
		cs[i] = tracing.Chunk{Worker: c.Worker, Start: c.Start, Size: c.Size, Elapsed: c.Elapsed}
	}
	tr.AddWorkerLanes(scope, cs, overhead)
}

// BuildGantt renders a chunk log as an ASCII Gantt chart: one lane per
// worker, '#' for execution and 'o' for the dispatch overhead ahead of
// each chunk — the terminal twin of the Chrome-trace worker lanes.
func BuildGantt(title string, chunks []sim.ChunkRecord, workers int, overhead float64) *report.Gantt {
	g := report.NewGantt(title, workers)
	for _, c := range chunks {
		if overhead > 0 {
			g.Add(c.Worker, c.Start, c.Start+overhead, 'o')
		}
		g.Add(c.Worker, c.Start+overhead, c.Start+overhead+c.Elapsed, '#')
	}
	return g
}
