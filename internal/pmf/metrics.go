package pmf

import (
	"sync/atomic"

	"cdsf/internal/metrics"
)

// Every engine gets its instrumentation from the tracing.Scope in its
// config, with one exception: this package. Combine and Compact are
// free functions with no receiver or config struct to hang a registry
// on, and they run inside every kernel of the Stage-I table build and
// the DAG composition, so a scope parameter would widen every PMF
// signature. The package therefore holds the program's one
// process-wide instrumentation hook, SetMetrics, which runner.Run
// points at the session's registry. The counters record how often the
// merge fast path of Combine applies versus the naive cross-product
// fallback, and how often Compact actually truncates a PMF to the
// pulse cap — the two knobs that dominate Stage-I PMF cost and
// accuracy. A binned AddCompact builds no cross product: it counts one
// truncation and no combine; its fallback to the fold counts through
// Add and Compact.

type pmfInstr struct {
	fast      *metrics.Counter // pmf.combine_fast: merge-path Combines
	small     *metrics.Counter // pmf.combine_small: direct-product small Combines
	fallback  *metrics.Counter // pmf.combine_fallback: naive cross products
	truncated *metrics.Counter // pmf.compact_truncations: lossy Compacts and binned AddCompacts
}

var instrPtr atomic.Pointer[pmfInstr]

// SetMetrics installs reg as the destination of the package's
// operation counters; nil disables them (the default). Safe to call
// concurrently with PMF operations, though CLIs install it once at
// startup. Counting never changes any computed PMF.
func SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		instrPtr.Store(nil)
		return
	}
	instrPtr.Store(&pmfInstr{
		fast:      reg.Counter("pmf.combine_fast"),
		small:     reg.Counter("pmf.combine_small"),
		fallback:  reg.Counter("pmf.combine_fallback"),
		truncated: reg.Counter("pmf.compact_truncations"),
	})
}
