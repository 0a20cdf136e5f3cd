package tracing

import "cdsf/internal/metrics"

// Scope is the instrumentation one run reports to: a metrics registry
// for counts, a tracer for spans and a progress board for done/planned
// counts. It travels by value in the Obs field of every engine config
// (ra.Problem, sim.Config, core.StageIIConfig, batch.Config, the
// experiments studies), and that field is the only way instrumentation
// reaches an engine: no process-wide default stands behind it, so
// concurrent runs with distinct scopes never see each other's counts.
//
// Any field may be nil. Every method of a nil *metrics.Registry,
// *Tracer or *Progress is a no-op, so the zero Scope is the disabled
// path. Instrumentation observes and never steers: seeded results are
// bit-identical under any Scope.
type Scope struct {
	// Metrics receives counters, gauges, timers and histograms.
	Metrics *metrics.Registry
	// Tracer receives wall-clock and simulated-time spans.
	Tracer *Tracer
	// Progress receives scenario, case and replication counts.
	Progress *Progress
}
