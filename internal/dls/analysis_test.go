package dls

import (
	"math"
	"slices"
	"testing"
)

func mustAnalyze(t *testing.T, name string, n, p int, h float64) *ScheduleAnalysis {
	t.Helper()
	tech, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSchedule(tech, n, p, h, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeScheduleConservation(t *testing.T) {
	for _, name := range Names() {
		a := mustAnalyze(t, name, 1000, 4, 0.5)
		total := 0
		for _, e := range a.Entries {
			total += e.Size
		}
		if total != 1000 {
			t.Errorf("%s schedule covers %d iterations", name, total)
		}
		if a.MeanChunk <= 0 || a.FirstChunk <= 0 || a.LastChunk <= 0 {
			t.Errorf("%s: degenerate stats %+v", name, a)
		}
	}
}

func TestAnalyzeScheduleKnownCounts(t *testing.T) {
	// STATIC: exactly P chunks of N/P.
	a := mustAnalyze(t, "STATIC", 1000, 4, 0)
	if a.Chunks != 4 || a.FirstChunk != 250 {
		t.Errorf("STATIC analysis %+v", a)
	}
	// SS: exactly N chunks of 1.
	s := mustAnalyze(t, "SS", 100, 4, 0)
	if s.Chunks != 100 || s.MeanChunk != 1 {
		t.Errorf("SS analysis %+v", s)
	}
	// FAC: first batch chunks are N/(2P).
	f := mustAnalyze(t, "FAC", 1000, 4, 0)
	if f.FirstChunk != 125 {
		t.Errorf("FAC first chunk %d", f.FirstChunk)
	}
	// Chunk counts are ordered SS > FAC > STATIC.
	if !(s.Chunks > f.Chunks && f.Chunks > a.Chunks) {
		t.Errorf("chunk-count ordering violated: SS %d, FAC %d, STATIC %d",
			s.Chunks, f.Chunks, a.Chunks)
	}
}

func TestOverheadRatio(t *testing.T) {
	a := mustAnalyze(t, "SS", 1000, 4, 2)
	// SS: 1000 chunks * 2 overhead over 1000*1 work = 2.0.
	if math.Abs(a.OverheadRatio-2.0) > 1e-12 {
		t.Errorf("SS overhead ratio = %v", a.OverheadRatio)
	}
	st := mustAnalyze(t, "STATIC", 1000, 4, 2)
	if st.OverheadRatio >= a.OverheadRatio {
		t.Error("STATIC overhead ratio not below SS")
	}
}

func TestCompareSchedules(t *testing.T) {
	res, err := CompareSchedules(PaperRobustSet(), 2048, 8, 1, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d analyses", len(res))
	}
	for _, a := range res {
		if a.Chunks <= 8 {
			t.Errorf("%s suspiciously few chunks: %d", a.Technique, a.Chunks)
		}
	}
}

func TestAnalyzeScheduleErrors(t *testing.T) {
	tech, _ := ByName("FAC")
	if _, err := AnalyzeSchedule(tech, 100, 4, 0, 0, 0); err == nil {
		t.Error("zero iterMean accepted")
	}
	if _, err := AnalyzeSchedule(tech, 0, 4, 0, 1, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

// TestGoldenChunkSequences drives every registered technique through
// AnalyzeSchedule's idealized equal-speed loop on N = 4096 iterations
// at P = 2, 4, 8 and 16 with overhead h = 1, and checks its chunk sizes
// against the technique's closed form, computed here from the formula.
func TestGoldenChunkSequences(t *testing.T) {
	const n, h = 4096, 1.0
	repeat := func(k, times int) []int {
		out := make([]int, times)
		for i := range out {
			out[i] = k
		}
		return out
	}
	// Factoring's FAC2 rule: each batch holds half the remaining
	// iterations (rounded up) in P chunks of ceil(batch/P), the batch's
	// last chunk taking what is left of it.
	fac := func(p int) []int {
		var out []int
		for r := n; r > 0; {
			batch := (r + 1) / 2
			chunk := (batch + p - 1) / p
			for left := batch; left > 0; left -= chunk {
				out = append(out, min(chunk, left))
			}
			r -= batch
		}
		return out
	}
	closed := map[string]func(p int) []int{
		"STATIC": func(p int) []int { return repeat(n/p, p) },
		"SS":     func(int) []int { return repeat(1, n) },
		// At sigma = 0 FSC takes its N/(2P) fallback;
		// TestAnalyzeScheduleFSCSigma covers the Kruskal-Weiss size.
		"FSC": func(p int) []int { return repeat(n/(2*p), 2*p) },
		// Tzen & Ni: sizes fall linearly from f = N/(2P) to l = 1 in
		// steps of (f-l)/(C-1), C = ceil(2N/(f+l)); the last chunk
		// takes what remains.
		"TSS": func(p int) []int {
			f, l := float64(n)/float64(2*p), 1.0
			d := (f - l) / (math.Ceil(2*n/(f+l)) - 1)
			var out []int
			for i, left := 0, n; left > 0; i++ {
				k := min(int(math.Round(math.Max(f-float64(i)*d, l))), left)
				out = append(out, k)
				left -= k
			}
			return out
		},
		"FAC": fac,
		// WF with equal weights is FAC; equal speeds teach the AWF
		// family equal weights (AWF-D and AWF-E add the same h to
		// equal chunks), so it dispatches FAC's sequence too.
		"WF":    fac,
		"AWF":   fac,
		"AWF-B": fac,
		"AWF-C": fac,
		"AWF-D": fac,
		"AWF-E": fac,
		// At equal speeds AF measures no variance, so its batch cap,
		// ceil(R/(2P)) of the R iterations remaining, sizes every chunk.
		"AF": func(p int) []int {
			var out []int
			for r := n; r > 0; {
				k := (r + 2*p - 1) / (2 * p)
				out = append(out, k)
				r -= k
			}
			return out
		},
	}
	for _, tech := range All() {
		want, ok := closed[tech.Name]
		if !ok {
			t.Errorf("%s has no closed form here", tech.Name)
			continue
		}
		for _, p := range []int{2, 4, 8, 16} {
			a, err := AnalyzeSchedule(tech, n, p, h, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			sizes := make([]int, len(a.Entries))
			for i, e := range a.Entries {
				sizes[i] = e.Size
			}
			if !slices.Equal(sizes, want(p)) {
				t.Errorf("%s P=%d: chunks %v, want %v", tech.Name, p, sizes, want(p))
			}
		}
	}
}

// TestAnalyzeScheduleFSCSigma checks that AnalyzeSchedule hands the
// iteration sigma to the technique: FSC then dispatches chunks of the
// Kruskal-Weiss size k = ceil((sqrt(2)*N*h/(sigma*P*sqrt(ln P)))^(2/3)),
// the last taking what remains.
func TestAnalyzeScheduleFSCSigma(t *testing.T) {
	const n, p, h, sigma = 4096, 8, 1.0, 0.3
	tech, err := ByName("FSC")
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSchedule(tech, n, p, h, 1, sigma)
	if err != nil {
		t.Fatal(err)
	}
	k := int(math.Ceil(math.Pow(math.Sqrt2*n*h/(sigma*p*math.Sqrt(math.Log(p))), 2.0/3.0)))
	if a.Chunks != (n+k-1)/k || a.FirstChunk != k || a.LastChunk != n-(a.Chunks-1)*k {
		t.Errorf("FSC at sigma %v: %d chunks, first %d, last %d; want chunks of %d", sigma, a.Chunks, a.FirstChunk, a.LastChunk, k)
	}
}
