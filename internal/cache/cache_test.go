package cache

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
	"cdsf/internal/sysmodel"
)

func testModel(t *testing.T, deadline float64) (*sysmodel.System, sysmodel.Batch) {
	t.Helper()
	sys := &sysmodel.System{Types: []sysmodel.ProcType{
		{Name: "Type 1", Count: 2, Avail: pmf.MustNew([]pmf.Pulse{
			{Value: 0.5, Prob: 0.5}, {Value: 1, Prob: 0.5}})},
	}}
	batch := sysmodel.Batch{{
		Name:          "App 1",
		SerialIters:   10,
		ParallelIters: 100,
		ExecTime:      []pmf.PMF{pmf.Discretize(stats.NewNormal(50, 5), 20)},
	}}
	_ = deadline
	return sys, batch
}

func TestHasherFraming(t *testing.T) {
	// Field boundaries are part of the identity: ("ab","c") != ("a","bc").
	a := NewHasher("d").String("ab").String("c").Sum()
	b := NewHasher("d").String("a").String("bc").Sum()
	if a == b {
		t.Error("framing collision: (ab,c) == (a,bc)")
	}
	// The domain label separates key spaces.
	if NewHasher("d1").String("x").Sum() == NewHasher("d2").String("x").Sum() {
		t.Error("distinct domains collided")
	}
	// Identical field sequences agree.
	if NewHasher("d").Uint64(7).Float64(1.5).Int(-3).Sum() !=
		NewHasher("d").Uint64(7).Float64(1.5).Int(-3).Sum() {
		t.Error("identical sequences disagree")
	}
	// Every field write changes the key.
	base := NewHasher("d").Uint64(7).Sum()
	for name, k := range map[string]Key{
		"uint64":  NewHasher("d").Uint64(8).Sum(),
		"float64": NewHasher("d").Uint64(7).Float64(0).Sum(),
		"bytes":   NewHasher("d").Uint64(7).Bytes(nil).Sum(),
	} {
		if k == base {
			t.Errorf("%s write did not change the key", name)
		}
	}
	// Float keys distinguish bit patterns, not printed forms.
	if NewHasher("d").Float64(0.0).Sum() == NewHasher("d").Float64(negZero()).Sum() {
		t.Error("+0 and -0 collided")
	}
}

func negZero() float64 { var z float64; return -z }

func TestKeyStringAndZero(t *testing.T) {
	k2 := NewHasher("d").Sum()
	if k2 == (Key{}) {
		t.Error("real key is the zero key")
	}
	if len(k2.String()) != 64 {
		t.Errorf("hex form has length %d", len(k2.String()))
	}
}

func TestResultTierRoundTrip(t *testing.T) {
	c := New(Options{})
	k := NewHasher("cdsf-result-v1").String("x").Sum()
	if _, ok := c.GetResult(k); ok {
		t.Fatal("hit on empty cache")
	}
	doc := []byte(`{"x":1}`)
	c.PutResult(k, doc)
	doc[2] = 'y' // the cache copied on put, so this must not leak in
	got, ok := c.GetResult(k)
	if !ok || string(got) != `{"x":1}` {
		t.Fatalf("GetResult = %q, %v", got, ok)
	}
	s := c.Stats()
	if s.ResultHits != 1 || s.ResultMisses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
	// An empty document is never stored.
	c.PutResult(NewHasher("d").String("e").Sum(), nil)
	if c.Len() != 1 {
		t.Error("empty document was stored")
	}
}

func TestTableTierRoundTrip(t *testing.T) {
	c := New(Options{})
	k := NewHasher("cdsf-table-v1").String("x").Sum()
	p := pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 1}})
	c.PutTable(k, &Table{Types: 1, Logs: 2, Cells: []pmf.Dist{p, nil}})
	got, ok := c.GetTable(k)
	if !ok || got.Types != 1 || got.Logs != 2 || len(got.Cells) != 2 {
		t.Fatalf("GetTable = %+v, %v", got, ok)
	}
	if got.Cells[0].Mean() != 1 {
		t.Error("cell distribution corrupted")
	}
	// nil and empty tables are never stored.
	c.PutTable(k, nil)
	c.PutTable(NewHasher("d").Sum(), &Table{})
	if c.Len() != 1 {
		t.Error("degenerate table was stored")
	}
}

func TestTiersDoNotAlias(t *testing.T) {
	// Same raw key in both tiers: each tier only sees its own value.
	c := New(Options{})
	k := NewHasher("d").Sum()
	c.PutResult(k, []byte("doc"))
	if _, ok := c.GetTable(k); ok {
		t.Error("table get returned a result entry")
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	k := NewHasher("d").Sum()
	if _, ok := c.GetResult(k); ok {
		t.Error("nil cache hit")
	}
	if _, ok := c.GetTable(k); ok {
		t.Error("nil cache hit")
	}
	c.PutResult(k, []byte("x"))
	c.PutTable(k, &Table{Cells: []pmf.Dist{nil}})
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache accumulated state")
	}
}

func TestLRUEntryBound(t *testing.T) {
	c := New(Options{MaxEntries: 4})
	keyOf := func(i int) Key { return NewHasher("d").Int(i).Sum() }
	for i := 0; i < 10; i++ {
		c.PutResult(keyOf(i), []byte{byte(i)})
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// The four most recent survive; the rest were evicted in order.
	for i := 0; i < 6; i++ {
		if _, ok := c.GetResult(keyOf(i)); ok {
			t.Errorf("key %d survived past the entry bound", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok := c.GetResult(keyOf(i)); !ok {
			t.Errorf("recent key %d evicted", i)
		}
	}
	if s := c.Stats(); s.Evictions != 6 {
		t.Errorf("evictions = %d, want 6", s.Evictions)
	}
}

// incompressible returns n pseudo-random bytes, which flate cannot
// shrink, so an entry's charged size is known from its length.
func incompressible(seed, n int) []byte {
	r := rand.New(rand.NewPCG(uint64(seed), 0))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

func TestLRUByteBoundAndRecency(t *testing.T) {
	// Each entry costs its compressed length + 96 bytes; bound to fit
	// two of the equally long incompressible documents.
	docs := [][]byte{incompressible(0, 64), incompressible(1, 64), incompressible(2, 64)}
	cost := int64(0)
	for _, d := range docs {
		cost = max(cost, int64(len(deflate(d)))+96)
	}
	c := New(Options{MaxBytes: 2 * cost})
	keyOf := func(i int) Key { return NewHasher("d").Int(i).Sum() }
	c.PutResult(keyOf(0), docs[0])
	c.PutResult(keyOf(1), docs[1])
	// Touch 0 so 1 becomes the LRU victim.
	if _, ok := c.GetResult(keyOf(0)); !ok {
		t.Fatal("warm entry missing")
	}
	c.PutResult(keyOf(2), docs[2])
	if _, ok := c.GetResult(keyOf(1)); ok {
		t.Error("LRU victim survived")
	}
	if _, ok := c.GetResult(keyOf(0)); !ok {
		t.Error("recently used entry evicted")
	}
	if s := c.Stats(); s.Bytes > 2*cost {
		t.Errorf("bytes %d over bound", s.Bytes)
	}
	// An entry larger than the whole budget is rejected outright.
	before := c.Len()
	c.PutResult(keyOf(3), incompressible(3, 1024))
	if c.Len() != before {
		t.Error("oversize entry displaced the cache")
	}
}

// The result tier holds documents compressed, charges the compressed
// bytes, and hands every hit the exact document in a buffer of its own.
func TestResultTierStoresCompressed(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, `{"technique":"AWF-B","mean_time":%d.25,"meets":true},`, 1000+i)
	}
	doc := []byte("[" + strings.TrimSuffix(b.String(), ",") + "]")
	c := New(Options{})
	k := NewHasher("d").Int(1).Sum()
	c.PutResult(k, doc)
	if got := c.Stats().Bytes; got >= int64(len(doc))/2 {
		t.Errorf("a %d-byte JSON document is charged %d bytes", len(doc), got)
	}
	first, ok := c.GetResult(k)
	if !ok || string(first) != string(doc) {
		t.Fatalf("GetResult = %q, %v", first, ok)
	}
	first[0] = 'x'
	if again, _ := c.GetResult(k); string(again) != string(doc) {
		t.Error("a caller's edit reached the cached document")
	}
}

func TestDuplicatePutRefreshesRecency(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	keyOf := func(i int) Key { return NewHasher("d").Int(i).Sum() }
	c.PutResult(keyOf(0), []byte("a"))
	c.PutResult(keyOf(1), []byte("b"))
	c.PutResult(keyOf(0), []byte("a")) // duplicate: refresh, not grow
	if c.Len() != 2 {
		t.Fatalf("Len = %d after duplicate put", c.Len())
	}
	c.PutResult(keyOf(2), []byte("c"))
	if _, ok := c.GetResult(keyOf(0)); !ok {
		t.Error("refreshed entry was evicted")
	}
	if _, ok := c.GetResult(keyOf(1)); ok {
		t.Error("stale entry survived")
	}
}

// TestLRUBoundUnderParallelLoad drives mixed hits and misses of the
// result and evaluation tiers from many goroutines (run under -race)
// and checks the bounds hold at every observation point.
func TestLRUBoundUnderParallelLoad(t *testing.T) {
	const (
		workers    = 8
		opsPer     = 400
		maxEntries = 32
		maxBytes   = int64(maxEntries) * (8 + 96)
	)
	c := New(Options{MaxBytes: maxBytes, MaxEntries: maxEntries})
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				// Half the key space is shared across workers (hits),
				// half is private (misses + evictions).
				// Every third operation goes to the evaluation tier.
				domain := "result"
				if i%3 == 2 {
					domain = "eval"
				}
				var k Key
				if i%2 == 0 {
					k = NewHasher("shared-" + domain).Int(i % 16).Sum()
				} else {
					k = NewHasher("private-" + domain).Int(w).Int(i).Sum()
				}
				if domain == "eval" {
					if ev, ok := c.GetEval(k); ok {
						if ev.Phi1 != 0.5 || len(ev.PerApp) != 1 {
							errs <- fmt.Sprintf("worker %d: cached evaluation %+v", w, ev)
							return
						}
					} else {
						c.PutEval(k, &Eval{PerApp: []float64{0.5}, ExpectedTimes: []float64{1}, Phi1: 0.5})
					}
				} else if doc, ok := c.GetResult(k); ok {
					if len(doc) != 8 {
						errs <- fmt.Sprintf("worker %d: cached doc has %d bytes", w, len(doc))
						return
					}
				} else {
					c.PutResult(k, []byte("12345678"))
				}
				if s := c.Stats(); s.Entries > maxEntries || s.Bytes > maxBytes {
					errs <- fmt.Sprintf("worker %d: bounds exceeded: %+v", w, s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	s := c.Stats()
	if s.ResultHits == 0 || s.ResultMisses == 0 || s.EvalHits == 0 || s.EvalMisses == 0 || s.Evictions == 0 {
		t.Errorf("load did not exercise all paths: %+v", s)
	}
}

func TestMetricsMirrors(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Options{Metrics: reg, MaxEntries: 1})
	keyOf := func(i int) Key { return NewHasher("d").Int(i).Sum() }
	c.GetResult(keyOf(0)) // result miss
	c.PutResult(keyOf(0), []byte("x"))
	c.GetResult(keyOf(0))              // result hit
	c.GetTable(keyOf(1))               // table miss
	c.PutResult(keyOf(2), []byte("y")) // evicts keyOf(0)
	for name, want := range map[string]int64{
		"cache.result_hits":   1,
		"cache.result_misses": 1,
		"cache.table_misses":  1,
		"cache.evictions":     1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Gauge("cache.entries").Value(); got != 1 {
		t.Errorf("cache.entries = %v", got)
	}
	if got := reg.Gauge("cache.bytes").Value(); got <= 0 {
		t.Errorf("cache.bytes = %v", got)
	}
}

func TestTableKeyInvariances(t *testing.T) {
	sys, batch := testModel(t, 3000)

	base, err := TableKey(sys, batch, pmf.BackendSparse, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic.
	again, _ := TableKey(sys, batch, pmf.BackendSparse, 0)
	if base != again {
		t.Error("TableKey is not deterministic")
	}
	// Sparse keys ignore the grid step (sparse cells are exact at any
	// step).
	withStep, _ := TableKey(sys, batch, pmf.BackendSparse, 3.17)
	if base != withStep {
		t.Error("sparse TableKey depends on the grid step")
	}
	// Grid keys include the step: a different deadline quantizes onto a
	// different lattice, so it must be a warm miss.
	g1, _ := TableKey(sys, batch, pmf.BackendGrid, 3000.0/1024)
	g2, _ := TableKey(sys, batch, pmf.BackendGrid, 2800.0/1024)
	if g1 == g2 {
		t.Error("grid TableKey ignores the step")
	}
	if g1 == base {
		t.Error("grid and sparse TableKey collided")
	}
	// The model content is the identity: a changed mean changes the key.
	sys2, batch2 := testModel(t, 3000)
	batch2[0].SerialIters++
	changed, _ := TableKey(sys2, batch2, pmf.BackendSparse, 0)
	if changed == base {
		t.Error("TableKey ignores the batch content")
	}
}

func TestTableKeyRejectsNonFinite(t *testing.T) {
	// An infinite pulse probability passes the constructor's per-pulse
	// check and normalizes to NaN (Inf/Inf), so a non-finite pulse can
	// reach TableKey through the public API; the key must refuse to
	// hash it, naming the offending field.
	bad, err := pmf.New([]pmf.Pulse{{Value: 0.5, Prob: math.Inf(1)}, {Value: 1, Prob: 1}})
	if err != nil {
		t.Skip("constructor now rejects infinite probabilities; guard unreachable")
	}

	sys, batch := testModel(t, 3000)
	sys.Types[0].Avail = bad
	if _, err := TableKey(sys, batch, pmf.BackendSparse, 0); err == nil ||
		!strings.Contains(err.Error(), "types[0].availability") {
		t.Errorf("availability NaN: err = %v, want field path", err)
	}

	sys2, batch2 := testModel(t, 3000)
	batch2[0].ExecTime[0] = bad
	if _, err := TableKey(sys2, batch2, pmf.BackendSparse, 0); err == nil ||
		!strings.Contains(err.Error(), "applications[0].execTimes[0]") {
		t.Errorf("exec-time NaN: err = %v, want field path", err)
	}
}

func TestParseSize(t *testing.T) {
	good := map[string]int64{
		"1024":    1024,
		"1k":      1 << 10,
		"2kb":     2 << 10,
		"3KiB":    3 << 10,
		"4m":      4 << 20,
		"5MB":     5 << 20,
		"256MiB":  256 << 20,
		"1g":      1 << 30,
		"2GB":     2 << 30,
		"1GiB":    1 << 30,
		"512b":    512,
		" 64MiB ": 64 << 20,
	}
	for in, want := range good {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "x", "-1", "0", "1.5MiB", "MiB", "9999999999g"} {
		if n, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want error", in, n)
		}
	}
}

func TestDistFootprint(t *testing.T) {
	p := pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 0.5}, {Value: 2, Prob: 0.5}})
	if distFootprint(nil) != 0 {
		t.Error("nil footprint")
	}
	if distFootprint(p) <= 0 {
		t.Error("PMF footprint")
	}
	g := p.ToGrid(1)
	defer g.Release()
	if distFootprint(g) <= 0 {
		t.Error("grid footprint")
	}
	// A packed grid counts its real bytes: a 4-byte offset, mass and
	// CDF per occupied bin plus the struct, however wide the span.
	wide := pmf.MustNew([]pmf.Pulse{{Value: 1, Prob: 0.25}, {Value: 500, Prob: 0.5}, {Value: 1000, Prob: 0.25}})
	wg := wide.ToGrid(1)
	defer wg.Release()
	packed := wg.Pack()
	if got, want := distFootprint(packed), int64(3*20+96); got != want {
		t.Errorf("packed footprint = %d, want %d", got, want)
	}
	if packed.Len() != 1000 || distFootprint(packed)*100 > distFootprint(wg) {
		t.Errorf("packed %d-bin span counted %d bytes against the dense %d", packed.Len(), distFootprint(packed), distFootprint(wg))
	}
	// A packed sparse cell drops the 8-byte CDF entry per pulse.
	if got, want := distFootprint(wide.Pack()), int64(3*16+32); got != want {
		t.Errorf("packed PMF footprint = %d, want %d", got, want)
	}
	tbl := &Table{Types: 1, Logs: 1, Cells: []pmf.Dist{p, nil}}
	if tbl.footprint() <= 0 {
		t.Error("table footprint")
	}
}

// TestEvalTierRoundTrip checks that an evaluation entry comes back as
// stored, is counted by the tier's own hit and miss counters, and is
// charged to the shared Entries and Bytes bounds.
func TestEvalTierRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Options{Metrics: reg})
	k := EvalKey(NewHasher("t").Sum(), []sysmodel.Edge{{From: 0, To: 1}}, 100, sysmodel.Allocation{{Type: 0, Procs: 1}, {Type: 0, Procs: 2}})
	if _, ok := c.GetEval(k); ok {
		t.Fatal("empty cache hit")
	}
	ev := &Eval{PerApp: []float64{0.9, 0.5}, ExpectedTimes: []float64{40, 90}, Phi1: 0.5}
	c.PutEval(k, ev)
	got, ok := c.GetEval(k)
	if !ok || got.Phi1 != 0.5 || got.PerApp[1] != 0.5 || got.ExpectedTimes[0] != 40 {
		t.Fatalf("GetEval = %+v, %v", got, ok)
	}
	// A result or table lookup under the same key sees nothing.
	if _, ok := c.GetTable(k); ok {
		t.Error("table get returned an evaluation entry")
	}
	s := c.Stats()
	if s.EvalHits != 1 || s.EvalMisses != 1 || s.Entries != 1 || s.Bytes != ev.footprint() {
		t.Errorf("stats = %+v, want 1 eval hit, 1 miss, 1 entry of %d bytes", s, ev.footprint())
	}
	if h, m := reg.Counter("cache.eval_hits").Value(), reg.Counter("cache.eval_misses").Value(); h != 1 || m != 1 {
		t.Errorf("cache.eval_hits/misses = %d/%d, want 1/1", h, m)
	}
	c.PutEval(k, nil)
	var nilCache *Cache
	nilCache.PutEval(k, ev)
	if _, ok := nilCache.GetEval(k); ok || c.Len() != 1 {
		t.Error("nil evaluation or nil cache stored an entry")
	}
}

// TestEvalTierEvictedUnderBound fills a byte bound with evaluation
// entries: the oldest go first, and the charged bytes never pass it.
func TestEvalTierEvictedUnderBound(t *testing.T) {
	ev := &Eval{PerApp: make([]float64, 8), ExpectedTimes: make([]float64, 8)}
	c := New(Options{MaxBytes: 3 * ev.footprint()})
	keyOf := func(i int) Key {
		return EvalKey(Key{}, nil, float64(i), sysmodel.Allocation{{Type: 0, Procs: 1}})
	}
	for i := 0; i < 5; i++ {
		c.PutEval(keyOf(i), ev)
		if b := c.Stats().Bytes; b > 3*ev.footprint() {
			t.Fatalf("after %d puts: %d bytes charged past the %d bound", i+1, b, 3*ev.footprint())
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.GetEval(keyOf(i)); ok != (i >= 2) {
			t.Errorf("entry %d present %v, want %v", i, ok, i >= 2)
		}
	}
	if s := c.Stats(); s.Entries != 3 || s.Evictions != 2 {
		t.Errorf("entries %d evictions %d, want 3 and 2", s.Entries, s.Evictions)
	}
}

// TestEvalKeyFields checks that every field of an evaluation key is
// part of its identity: a key differing only in the instance, the
// deadline, one edge, the edge order or one assignment misses.
func TestEvalKeyFields(t *testing.T) {
	sys, batch := testModel(t, 0)
	tk, err := TableKey(sys, batch, pmf.BackendSparse, 0)
	if err != nil {
		t.Fatal(err)
	}
	edges := []sysmodel.Edge{{From: 0, To: 2}, {From: 1, To: 2}}
	al := sysmodel.Allocation{{Type: 0, Procs: 1}, {Type: 1, Procs: 2}, {Type: 1, Procs: 4}}
	c := New(Options{})
	c.PutEval(EvalKey(tk, edges, 3000, al), &Eval{Phi1: 0.5})
	if _, ok := c.GetEval(EvalKey(tk, slices.Clone(edges), 3000, al.Clone())); !ok {
		t.Fatal("an equal key missed")
	}
	variants := map[string]Key{
		"instance":   EvalKey(NewHasher("other").Sum(), edges, 3000, al),
		"deadline":   EvalKey(tk, edges, math.Nextafter(3000, 4000), al),
		"edge":       EvalKey(tk, []sysmodel.Edge{{From: 0, To: 2}, {From: 0, To: 1}}, 3000, al),
		"edge order": EvalKey(tk, []sysmodel.Edge{{From: 1, To: 2}, {From: 0, To: 2}}, 3000, al),
		"no edges":   EvalKey(tk, nil, 3000, al),
		"type":       EvalKey(tk, edges, 3000, sysmodel.Allocation{{Type: 0, Procs: 1}, {Type: 0, Procs: 2}, {Type: 1, Procs: 4}}),
		"procs":      EvalKey(tk, edges, 3000, sysmodel.Allocation{{Type: 0, Procs: 1}, {Type: 1, Procs: 2}, {Type: 1, Procs: 2}}),
	}
	for name, k := range variants {
		if _, ok := c.GetEval(k); ok {
			t.Errorf("a key differing only in its %s hit", name)
		}
	}
}
