package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file turns a run into metrics: the end-to-end set of a timed run
// and the per-layer set, layer table and predictions of a traced run.

// e2eStats are the end-to-end numbers of one window.
type e2eStats struct {
	setup      float64 // median set-up seconds
	setups     []float64
	lat        []float64 // latencies (ms) of jobs done inside the window, sorted
	beyondP90  int
	done       int
	windowS    float64
	attempted  int
	failed     int
	cpuMsPer   float64
	peakMiB    float64
	throughput float64
	// bands are the latencies by request class, to show where p50 and
	// p90 fall.
	bands map[string][]float64
}

func endToEnd(win *window, setups []float64, attempted, failed int) e2eStats {
	e := e2eStats{setup: median(setups), setups: setups, attempted: attempted, failed: failed,
		windowS: win.deadline.Sub(win.start).Seconds(), peakMiB: float64(win.peakKiB) / 1024}
	e.bands = map[string][]float64{}
	for _, o := range win.outcomes {
		if o.err == nil && !o.done.After(win.deadline) {
			l := ms(o.done.Sub(o.sent))
			e.lat = append(e.lat, l)
			e.bands[o.rq.class] = append(e.bands[o.rq.class], l)
		}
	}
	sort.Float64s(e.lat)
	e.done = len(e.lat)
	p90 := quantile(e.lat, 0.9)
	for _, l := range e.lat {
		if l > p90 {
			e.beyondP90++
		}
	}
	e.throughput = float64(e.done) / e.windowS
	if e.done > 0 {
		e.cpuMsPer = float64(win.cpuTicks*msPerTick) / float64(e.done)
	}
	return e
}

func (e e2eStats) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":           {e.setup, "s"},
		"latency_p50_ms":    {quantile(e.lat, 0.5), "ms"},
		"latency_p90_ms":    {quantile(e.lat, 0.9), "ms"},
		"throughput_jobs_s": {e.throughput, "jobs/s"},
		"cpu_ms_per_job":    {e.cpuMsPer, "ms"},
		"peak_rss_mb":       {e.peakMiB, "MiB"},
	}
}

func (e e2eStats) errorRate() float64 {
	if e.attempted == 0 {
		return 0
	}
	return float64(e.failed) / float64(e.attempted)
}

func (e e2eStats) print() {
	m := e.metrics()
	fmt.Printf("end-to-end (%d jobs done inside the %.0fs window):\n", e.done, e.windowS)
	row := func(name, note string) {
		fmt.Printf("  %-18s %12.4f %-7s %s\n", name, m[name].Value, m[name].Unit, note)
	}
	row("setup_s", fmt.Sprintf("median of %d launches to first healthy /v1/healthz plus warm-up", len(e.setups)))
	row("latency_p50_ms", fmt.Sprintf("POST to terminal envelope, n=%d", e.done))
	row("latency_p90_ms", fmt.Sprintf("n=%d, %d samples beyond p90", e.done, e.beyondP90))
	row("throughput_jobs_s", "done jobs / window")
	fmt.Printf("  %-18s %12.4f %-7s %s\n", "error_rate", e.errorRate(), "fraction",
		fmt.Sprintf("(%d failed of %d attempted; also the summary's failed/attempted)", e.failed, e.attempted))
	row("cpu_ms_per_job", "cdsfd user+sys CPU over the window / done jobs")
	row("peak_rss_mb", "cdsfd VmHWM at the end of the run")
	e.printBands()
}

// printBands shows each request class's latency band and where the
// run's p50 and p90 fall in it.
func (e e2eStats) printBands() {
	p50, p90 := quantile(e.lat, 0.5), quantile(e.lat, 0.9)
	classes := make([]string, 0, len(e.bands))
	for c := range e.bands {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("latency bands by request class (ms; p50 %.3f, p90 %.3f):\n", p50, p90)
	for _, c := range classes {
		b := e.bands[c]
		sort.Float64s(b)
		fmt.Printf("  %-16s n=%-6d p10 %10.3f  p50 %10.3f  p90 %10.3f  share %5.1f%%\n",
			c, len(b), quantile(b, 0.1), quantile(b, 0.5), quantile(b, 0.9), 100*float64(len(b))/float64(len(e.lat)))
	}
}

// traced is the material of a traced run.
type traced struct {
	w       *workload
	win     *window
	jobs    []*replayJob
	spans   []span // replay spans
	pb      *probes
	appends durations
	kernels []kernelStat

	layers      []layerRow
	predictions []string
}

// layerRow is one module's share of the replayed jobs' wall time.
type layerRow struct {
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	Total  float64 `json:"total_ms"`
	Self   float64 `json:"self_ms"`
	Share  float64 `json:"share_of_job_wall"`
	Detail string  `json:"calls_by_name"`
	// Counters are the layer's per-job counters from the service.
	Counters string `json:"counters,omitempty"`
}

// selfTimes returns every span's duration minus the time its children
// cover (children of one replay span never overlap: the replay runs on
// one goroutine).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// callStats aggregates the replay spans by call name.
type callStats struct {
	n     int
	total int64
	jobs  map[string]int64 // per-job total
}

func byName(spans []span) map[string]*callStats {
	out := map[string]*callStats{}
	for _, s := range spans {
		c := out[s.Name]
		if c == nil {
			c = &callStats{jobs: map[string]int64{}}
			out[s.Name] = c
		}
		c.n++
		c.total += s.End - s.Start
		c.jobs[s.Job] += s.End - s.Start
	}
	return out
}

// meanNs is the mean duration of one call, 0 when it was never made.
func (c *callStats) meanNs() float64 {
	if c == nil || c.n == 0 {
		return 0
	}
	return float64(c.total) / float64(c.n)
}

// perLayer is the contract list of per-layer metrics with their units,
// in report order.
var perLayer = []struct{ name, unit string }{
	{"server.admit_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.run_ms", "ms"},
	{"server.outside_run_ms", "ms"}, {"server.requests_per_job", "count"},
	{"store.append_us", "us"}, {"store.fsyncs_per_job", "count"}, {"store.appends_per_job", "count"},
	{"store.wal_kb_per_job", "KiB"},
	{"api.decode_us", "us"}, {"api.encode_us", "us"}, {"api.request_kb", "KiB"}, {"api.result_kb", "KiB"},
	{"events.recorded_per_job", "count"},
	{"cache.result_key_us", "us"}, {"cache.result_hit_ratio", "fraction"},
	{"cache.table_key_us", "us"}, {"cache.table_hit_ratio", "fraction"},
	{"config.build_ms", "ms"}, {"config.marshal_us", "us"},
	{"ra.table_build_ms", "ms"}, {"ra.precompute_cells_per_job", "count"}, {"ra.search_ms", "ms"},
	{"ra.evaluations_per_job", "count"}, {"ra.exhaustive_scanned_per_job", "count"},
	{"robustness.eval_ms", "ms"},
	{"sysmodel.compose_ms", "ms"}, {"sysmodel.completion_pmf_ms", "ms"},
	{"pmf.add_us", "us"}, {"pmf.max_us", "us"}, {"pmf.compact_us", "us"}, {"pmf.div_us", "us"},
	{"pmf.to_grid_us", "us"}, {"pmf.combine_fast_per_job", "count"}, {"pmf.combine_fallback_per_job", "count"},
	{"pmf.compact_truncations_per_job", "count"},
	{"core.stage2_ms", "ms"}, {"core.cases_per_job", "count"},
	{"sim.rep_us", "us"}, {"sim.replications_per_job", "count"}, {"sim.events_per_job", "count"},
	{"sim.chunks_per_job", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// missingValue marks, in the JSON summary, a counter the service did
// not export in this run (never incremented, or renamed); the report
// prints "missing" rather than a zero.
const missingValue = -1

// report prints the traced run's tables and returns the per-layer
// metrics.
func (t *traced) report() map[string]metric {
	vals := map[string]float64{}
	missing := map[string]bool{}
	calls := byName(t.spans)
	us := func(name string) float64 { return calls[name].meanNs() / 1e3 }
	msOf := func(name string) float64 { return calls[name].meanNs() / 1e6 }

	// Live window: client spans and envelope timestamps.
	var admit, queue, run, outside []float64
	requests, jobs := 0, 0
	for _, o := range t.win.outcomes {
		if o.err != nil {
			continue
		}
		jobs++
		requests += o.requests
		admit = append(admit, ms(o.admitted.Sub(o.sent)))
		if o.env.Started != nil && o.env.Finished != nil {
			r := ms(o.env.Finished.Sub(*o.env.Started))
			queue = append(queue, ms(o.env.Started.Sub(o.env.Created)))
			run = append(run, r)
			outside = append(outside, ms(o.done.Sub(o.sent))-r)
		}
	}
	vals["server.admit_ms"] = mean(admit)
	vals["server.queue_wait_ms"] = mean(queue)
	vals["server.run_ms"] = mean(run)
	vals["server.outside_run_ms"] = mean(outside)
	if jobs > 0 {
		vals["server.requests_per_job"] = float64(requests) / float64(jobs)
	}

	// Counters: /metrics and healthz diffed around the window, per job
	// finished between the two scrapes.
	b, a := t.win.before, t.win.after
	perJob := func(v float64) float64 {
		if len(t.win.outcomes) == 0 {
			return 0
		}
		return v / float64(len(t.win.outcomes))
	}
	counter := func(metricName, counterName string) {
		if d, ok := delta(b, a, counterName); ok {
			vals[metricName] = perJob(d)
		} else {
			missing[metricName] = true
		}
	}
	ratio := func(metricName, hits, misses string) {
		h, ok1 := delta(b, a, hits)
		m, ok2 := delta(b, a, misses)
		switch {
		case !ok1 || !ok2:
			missing[metricName] = true
		case h+m > 0:
			vals[metricName] = h / (h + m)
		}
	}
	if a.hasStore {
		vals["store.fsyncs_per_job"] = perJob(float64(a.store.Fsyncs - b.store.Fsyncs))
		vals["store.appends_per_job"] = perJob(float64(a.store.Records - b.store.Records))
		vals["store.wal_kb_per_job"] = perJob(float64(a.store.WALBytes-b.store.WALBytes) / 1024)
	} else {
		missing["store.fsyncs_per_job"], missing["store.appends_per_job"], missing["store.wal_kb_per_job"] = true, true, true
	}
	counter("events.recorded_per_job", "events.recorded")
	ratio("cache.result_hit_ratio", "cache.result_hits", "cache.result_misses")
	ratio("cache.table_hit_ratio", "cache.table_hits", "cache.table_misses")
	counter("ra.precompute_cells_per_job", "ra.precompute_cells")
	counter("ra.evaluations_per_job", "ra.evaluations")
	counter("ra.exhaustive_scanned_per_job", "ra.exhaustive_scanned")
	counter("pmf.combine_fast_per_job", "pmf.combine_fast")
	counter("pmf.combine_fallback_per_job", "pmf.combine_fallback")
	counter("pmf.compact_truncations_per_job", "pmf.compact_truncations")
	counter("sim.replications_per_job", "sim.replications")
	counter("sim.events_per_job", "sim.events")
	counter("sim.chunks_per_job", "sim.chunks")

	// Replay spans and probes.
	vals["store.append_us"] = float64(t.appends.mean()) / 1e3
	vals["api.decode_us"] = us("api.decode")
	vals["api.encode_us"] = us("api.encode")
	var reqB, resB float64
	for _, j := range t.jobs {
		reqB += float64(len(j.rq.body))
		resB += float64(len(j.doc))
	}
	if n := float64(len(t.jobs)); n > 0 {
		vals["api.request_kb"] = reqB / n / 1024
		vals["api.result_kb"] = resB / n / 1024
	}
	vals["cache.result_key_us"] = us("cache.result_key")
	vals["cache.table_key_us"] = float64(t.pb.tableKey.mean()) / 1e3
	vals["config.build_ms"] = msOf("config.Build")
	vals["config.marshal_us"] = us("config.Marshal")
	vals["ra.table_build_ms"] = msOf("ra.PrecomputeContext")
	vals["ra.search_ms"] = msOf("ra.SolveContext")
	vals["robustness.eval_ms"] = msOf("robustness.EvaluateStageIDAG")
	vals["sysmodel.compose_ms"] = ms(t.pb.compose.mean())
	vals["sysmodel.completion_pmf_ms"] = ms(t.pb.completion.mean())
	for _, k := range t.kernels {
		key := map[string]string{"pmf.Add": "pmf.add_us", "pmf.Max": "pmf.max_us", "pmf.Compact": "pmf.compact_us",
			"pmf.Div": "pmf.div_us", "pmf.ToGrid": "pmf.to_grid_us"}[k.Op]
		vals[key] = k.NsPerOp / 1e3
	}
	vals["core.stage2_ms"] = msOf("core.stage2")
	if st := calls["core.stage2"]; st != nil && st.n > 0 {
		vals["core.cases_per_job"] = float64(calls["core.RunCaseContext"].n) / float64(st.n)
	}
	reps := 0
	for _, j := range t.jobs {
		reps += j.replications
	}
	if c := calls["core.RunCaseContext"]; c != nil && reps > 0 {
		vals["sim.rep_us"] = float64(c.total) / float64(reps) / 1e3
	}

	// Tracing overhead: the traced half of the window against the
	// untraced half.
	var tl, ul []float64
	for _, o := range t.win.outcomes {
		if o.err != nil || o.done.After(t.win.deadline) {
			continue
		}
		if o.spans != nil {
			tl = append(tl, ms(o.done.Sub(o.sent)))
		} else {
			ul = append(ul, ms(o.done.Sub(o.sent)))
		}
	}
	if u := median(ul); u > 0 && len(tl) > 0 {
		vals["bench.trace_overhead_pct"] = (median(tl)/u - 1) * 100
	}

	t.layers = t.layerTable()
	for i := range t.layers {
		var cs []string
		for _, m := range perLayer {
			if layerOf(m.name) == t.layers[i].Layer && (strings.HasSuffix(m.name, "_per_job") || strings.HasSuffix(m.name, "_ratio")) {
				v := fmt.Sprintf("%.4g", vals[m.name])
				if missing[m.name] {
					v = "missing"
				}
				cs = append(cs, strings.TrimPrefix(m.name, t.layers[i].Layer+".")+"="+v)
			}
		}
		t.layers[i].Counters = strings.Join(cs, " ")
	}
	t.predict(vals, calls)
	out := map[string]metric{}
	fmt.Printf("per-layer metrics (%d jobs in the window, %d replayed in-process):\n", len(t.win.outcomes), len(t.jobs))
	for _, m := range perLayer {
		if missing[m.name] {
			out[m.name] = metric{missingValue, m.unit}
			fmt.Printf("  %-32s %14s %s\n", m.name, "missing", "(the service exported no such counter in this run)")
			continue
		}
		out[m.name] = metric{vals[m.name], m.unit}
		fmt.Printf("  %-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Printf("per-layer table (self time of the replay's spans; share of replayed job wall time incl. WAL appends):\n")
	fmt.Printf("  %-12s %7s %11s %11s %7s  %s\n", "layer", "calls", "total ms", "self ms", "share", "calls; per-job counters")
	for _, r := range t.layers {
		fmt.Printf("  %-12s %7d %11.3f %11.3f %6.1f%%  %s", r.Layer, r.Calls, r.Total, r.Self, 100*r.Share, r.Detail)
		if r.Counters != "" {
			fmt.Printf("; %s", r.Counters)
		}
		fmt.Println()
	}
	fmt.Printf("probes (outside the job spans): cache.TableKey %.1fus x%d, sysmodel CompletionPMF %.3fms x%d, sysmodel.ComposeDAG %.3fms x%d\n",
		float64(t.pb.tableKey.mean())/1e3, t.pb.tableKey.n, ms(t.pb.completion.mean()), t.pb.completion.n,
		ms(t.pb.compose.mean()), t.pb.compose.n)
	fmt.Printf("pmf drill-down on operands captured from this workload's jobs:\n")
	if len(t.kernels) == 0 {
		fmt.Printf("  (no operands captured)\n")
	}
	for _, k := range t.kernels {
		fmt.Printf("  %-12s %14.0f ns/op %12.0f B/op %8.1f allocs/op  (%d operand sets)\n",
			k.Op, k.NsPerOp, k.BytesPerOp, k.AllocsPerOp, k.Operands)
	}
	fmt.Printf("client spans: %d traced jobs (job > server.admit, server.wait); trace overhead %.2f%% (p50 traced %d vs untraced %d jobs)\n",
		len(tl), vals["bench.trace_overhead_pct"], len(tl), len(ul))
	for _, p := range t.predictions {
		fmt.Printf("prediction: %s\n", p)
	}
	return out
}

func (t *traced) layerTable() []layerRow {
	self := selfTimes(t.spans)
	rows := map[string]*layerRow{}
	names := map[string]map[string]int{}
	var wall int64
	for i, s := range t.spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &layerRow{Layer: l}
			rows[l], names[l] = r, map[string]int{}
		}
		r.Calls++
		// A layer's total counts its outermost spans only, so a layer
		// calling itself is not counted twice.
		if s.Parent < 0 || layerOf(t.spans[s.Parent].Name) != l {
			r.Total += ms(time.Duration(s.End - s.Start))
		}
		r.Self += ms(time.Duration(self[i]))
		names[l][s.Name]++
	}
	var out []layerRow
	for l, r := range rows {
		if wall > 0 {
			r.Share = r.Self / ms(time.Duration(wall))
		}
		var parts []string
		for n, c := range names[l] {
			parts = append(parts, fmt.Sprintf("%s x%d", n, c))
		}
		sort.Strings(parts)
		r.Detail = strings.Join(parts, ", ")
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// predict marks the predictions stated for this workload as confirmed
// or refuted, with the numbers.
func (t *traced) predict(vals map[string]float64, calls map[string]*callStats) {
	verdict := func(ok bool) string {
		if ok {
			return "confirmed"
		}
		return "refuted"
	}
	switch t.w.name {
	case "paper-service":
		out, run := vals["server.outside_run_ms"], vals["server.run_ms"]
		t.predictions = append(t.predictions, fmt.Sprintf(
			"paper-service: server.outside_run_ms exceeds server.run_ms: %s (%.3f ms vs %.3f ms per executed job)",
			verdict(out > run), out, run))
	case "synth-stage1":
		var build durations
		for _, j := range t.jobs {
			if j.warmSparse {
				build.add(time.Duration(calls["config.Build"].jobs[j.id]))
			}
		}
		key := t.pb.tableKeyWarmSparse
		if build.n == 0 || key.n == 0 {
			t.predictions = append(t.predictions, "synth-stage1: config.build_ms exceeds cache.table_key_us on warm sparse jobs: unresolved (no warm sparse job replayed)")
			break
		}
		t.predictions = append(t.predictions, fmt.Sprintf(
			"synth-stage1: config.build_ms exceeds cache.table_key_us on warm sparse jobs: %s (%.3f ms vs %.1f us, %d jobs)",
			verdict(build.mean() > key.mean()), ms(build.mean()), float64(key.mean())/1e3, build.n))
	case "paper-scenario":
		self := selfTimes(t.spans)
		var simSelf, all int64
		for i, s := range t.spans {
			all += self[i]
			if s.Name == "core.RunCaseContext" {
				simSelf += self[i]
			}
		}
		share := 0.0
		if all > 0 {
			share = float64(simSelf) / float64(all)
		}
		t.predictions = append(t.predictions, fmt.Sprintf(
			"paper-scenario: sim holds over 90%% of self time: %s (%.1f%%, measured as the self time of core.RunCaseContext, which drives sim.RunManyContext for every (app, technique) cell)",
			verdict(share > 0.9), 100*share))
	case "dag-service":
		// Both sides come from the replay, where each job runs alone;
		// the live run time is printed for scale.
		for _, backend := range []string{"sparse", "grid"} {
			var eval, job durations
			for _, j := range t.jobs {
				if j.kind == "solve" && j.built && j.backend.String() == backend {
					eval.add(time.Duration(calls["robustness.EvaluateStageIDAG"].jobs[j.id]))
					job.add(time.Duration(calls["server.dispatch"].jobs[j.id]))
				}
			}
			if eval.n == 0 {
				t.predictions = append(t.predictions, fmt.Sprintf("dag-service: robustness.eval_ms is most of the solve's run time (%s): unresolved (no %s solve replayed)", backend, backend))
				continue
			}
			share := float64(eval.mean()) / float64(job.mean())
			t.predictions = append(t.predictions, fmt.Sprintf(
				"dag-service: robustness.eval_ms is most of the solve's run time (%s): %s (%.1f of %.1f ms per replayed solve, %.0f%%; live server.run_ms %.1f ms over all jobs)",
				backend, verdict(share > 0.5), ms(eval.mean()), ms(job.mean()), 100*share, vals["server.run_ms"]))
		}
	}
}

// clientTrace gathers the traced jobs' client spans, re-based on the
// window start.
func clientTrace(win *window) []span {
	var out []span
	base := win.start.UnixNano()
	for _, o := range win.outcomes {
		root := len(out)
		for _, s := range o.spans {
			s.ID += root
			if s.Parent >= 0 {
				s.Parent += root
			}
			s.Start -= base
			s.End -= base
			out = append(out, s)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
