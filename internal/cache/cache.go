// Package cache implements the content-addressed solve cache: a
// bounded, concurrency-safe LRU keyed by SHA-256 of the canonical
// instance JSON (config.Marshal) plus the solver knobs that affect the
// result. Seeded runs in this repository are bit-identical at every
// layer, so replaying a cached artifact is exact, never approximate.
//
// The cache has three tiers sharing one LRU bound:
//
//   - The result tier stores finished result documents (the marshaled
//     JSON of a solve/simulate/scenario job) keyed by instance bytes
//     plus every knob the result depends on. A byte-identical repeat
//     request is served in O(lookup) with the exact bytes the first
//     run produced. Documents are held flate-compressed and inflated
//     on every hit: a finished job's document stays resident for as
//     long as its entry does, and JSON result documents shrink
//     several-fold.
//
//   - The warm tier stores evaluation Tables: the per-allocation-cell
//     completion-time distributions behind a Stage-I evaluation table.
//     The table cells ra actually searches over store PrLE(Deadline)
//     and are NOT deadline-invariant, so the cache holds the pre-PrLE
//     distributions — under the sparse backend the completion PMF of a
//     cell depends only on the instance's types and applications, not
//     on the deadline, the heuristic, or the runtime availability
//     cases. A job that differs only in those re-derives its cells
//     with one cached-CDF PrLE read per cell (delta-solve) instead of
//     recomputing the completion-time convolutions.
//
//   - The evaluation tier stores the final Stage-I evaluation of one
//     allocation of a precedence-constrained batch: each application's
//     composed Pr(C_i <= Delta) and E[C_i], and phi_1. Composing the
//     completion PMFs along the edges is most of a DAG solve, and jobs
//     that differ only in the heuristic or the PMF backend often end on
//     the same allocation; the final evaluation is sparse for both
//     backends, so they share one entry. It keeps the scalars only:
//     the composed PMFs run to thousands of pulses per application,
//     and no result document carries them.
//
// All tiers are exact: result keys hash the canonical instance bytes
// (config.Marshal rejects non-finite floats, so NaN/Inf can never
// reach the hasher), table and evaluation keys frame the model's
// pulses directly (TableKey rejects non-finite pulses itself), values
// are immutable once inserted, and a cached replay is pinned
// bit-identical to the uncached computation by the determinism tests.
package cache

import (
	"bytes"
	"compress/flate"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"cdsf/internal/metrics"
	"cdsf/internal/pmf"
	"cdsf/internal/sysmodel"
)

// Key is a content address: a SHA-256 over canonical bytes.
type Key [sha256.Size]byte

// String returns the full lowercase hex form of the key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates the fields of a cache key. Every write is framed
// (length-prefixed or fixed-width), so distinct field sequences can
// never collide by concatenation, and the field order is part of the
// key's identity.
type Hasher struct {
	h hash.Hash
	// buf batches field writes before they reach the hash: a per-call
	// [8]byte escapes through the hash.Hash interface (one allocation
	// per field) and tiny Write calls carry per-call overhead, both of
	// which dominate TableKey over large batches (tens of thousands of
	// pulse fields per key).
	buf []byte
}

// NewHasher starts a key over the given domain label; distinct domains
// ("cdsf-table-v1", "cdsf-result-v1", ...) can never produce colliding
// keys even from identical field sequences.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New(), buf: make([]byte, 0, hasherBufSize)}
	return h.String(domain)
}

// hasherBufSize is the flush threshold of the field batch buffer.
const hasherBufSize = 4096

// flush drains the batched fields into the hash.
func (h *Hasher) flush() {
	if len(h.buf) > 0 {
		h.h.Write(h.buf)
		h.buf = h.buf[:0]
	}
}

// Bytes appends a length-prefixed byte field.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(len(b)))
	h.buf = append(h.buf, b...)
	if len(h.buf) >= hasherBufSize {
		h.flush()
	}
	return h
}

// String appends a length-prefixed string field.
func (h *Hasher) String(s string) *Hasher { return h.Bytes([]byte(s)) }

// Uint64 appends a fixed-width integer field.
func (h *Hasher) Uint64(v uint64) *Hasher {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, v)
	if len(h.buf) >= hasherBufSize {
		h.flush()
	}
	return h
}

// Int appends an int field.
func (h *Hasher) Int(v int) *Hasher { return h.Uint64(uint64(int64(v))) }

// Float64 appends a float field by its exact IEEE-754 bits, so keys
// distinguish values that print identically (and -0 from +0).
func (h *Hasher) Float64(f float64) *Hasher {
	return h.Uint64(math.Float64bits(f))
}

// Sum finalizes the key. The Hasher must not be used afterwards.
func (h *Hasher) Sum() Key {
	h.flush()
	var k Key
	copy(k[:], h.h.Sum(nil))
	return k
}

// Table is one warm-tier entry: the deadline-invariant completion-time
// distributions of a Stage-I evaluation table, indexed exactly like
// ra's cell array — (app*Types + type)*Logs + log2(procs) — with nil
// in the slots whose power-of-2 count exceeds the type's capacity.
// Cells must be immutable and pool-detached (grid distributions are
// stored as *pmf.PackedGrid, never as grids whose buffers may return
// to the sync.Pool); a Table is shared by every goroutine that hits it.
type Table struct {
	Types int
	Logs  int
	Cells []pmf.Dist
}

// footprint estimates the resident bytes of a warm table for the LRU
// byte accounting.
func (t *Table) footprint() int64 {
	n := int64(64 + 16*len(t.Cells))
	for _, d := range t.Cells {
		n += distFootprint(d)
	}
	return n
}

// distFootprint estimates the resident bytes of one distribution.
func distFootprint(d pmf.Dist) int64 {
	switch x := d.(type) {
	case nil:
		return 0
	case pmf.PMF:
		// 16 bytes per pulse plus the cached CDF.
		return int64(24*x.Len()) + 48
	case *pmf.PackedPMF:
		// 16 bytes per pulse, plus the struct and its slice header.
		return int64(16*x.Len()) + 32
	case *pmf.PackedGrid:
		// An int32 offset, the mass and the CDF per occupied bin, plus
		// the struct (three slice headers and the lattice fields).
		return int64(20*x.Occupied()) + 96
	case *pmf.Grid:
		// Dense mass plus dense CDF.
		return int64(16*x.Len()) + 64
	default:
		return 64
	}
}

// TableKey returns the warm-tier identity of a Stage-I evaluation
// table: exactly the model inputs the completion distributions depend
// on — each type's capacity and availability PMF, each application's
// iteration split and per-type execution-time PMF — plus the PMF
// backend, and, for the grid backend, the exact lattice step (grid
// cells are quantized at step = deadline/1024, so they are reusable
// only at the same step). Name, deadline, and runtime availability
// cases are excluded: the distributions do not depend on them, which
// is what lets delta-solves share one entry.
//
// The model is framed straight through the Hasher rather than rendered
// to canonical JSON first: a table key is computed on every
// cache-assisted Precompute, and for large batches the fixed-point
// JSON rendering costs more than the warm derivation it would gate.
// It fails if the model contains non-finite values, which must never
// reach the hasher.
func TableKey(sys *sysmodel.System, batch sysmodel.Batch, backend pmf.Backend, gridStep float64) (Key, error) {
	h := NewHasher("cdsf-table-v1")
	hashPMF := func(p pmf.PMF, path string, args ...any) error {
		h.Int(p.Len())
		for i := 0; i < p.Len(); i++ {
			pl := p.At(i)
			if math.IsNaN(pl.Value) || math.IsInf(pl.Value, 0) ||
				math.IsNaN(pl.Prob) || math.IsInf(pl.Prob, 0) {
				return fmt.Errorf("cache: %s: non-finite pulse", fmt.Sprintf(path, args...))
			}
			h.Float64(pl.Value).Float64(pl.Prob)
		}
		return nil
	}
	h.Int(len(sys.Types))
	for j := range sys.Types {
		t := &sys.Types[j]
		h.Int(t.Count)
		if err := hashPMF(t.Avail, "types[%d].availability", j); err != nil {
			return Key{}, err
		}
	}
	h.Int(len(batch))
	for i := range batch {
		a := &batch[i]
		h.Int(a.SerialIters).Int(a.ParallelIters).Int(len(a.ExecTime))
		for j := range a.ExecTime {
			if err := hashPMF(a.ExecTime[j], "applications[%d].execTimes[%d]", i, j); err != nil {
				return Key{}, err
			}
		}
	}
	h.String(backend.String())
	if backend.IsGrid() {
		h.Float64(gridStep)
	}
	return h.Sum(), nil
}

// Eval is one evaluation-tier entry: the sparse Stage-I evaluation of
// one allocation of a precedence-constrained batch under one deadline
// (robustness.EvaluateStageIDAG without its composed PMFs). PerApp[i]
// is Pr(C_i <= Delta) and ExpectedTimes[i] is E[C_i] of application
// i's composed completion time; Phi1 is the product over the sinks. An
// Eval is shared by every goroutine that hits it and must not be
// mutated.
type Eval struct {
	PerApp        []float64
	ExpectedTimes []float64
	Phi1          float64
}

// footprint estimates the resident bytes of an evaluation entry.
func (e *Eval) footprint() int64 {
	return int64(16*len(e.PerApp)) + 64
}

// EvalKey returns the evaluation-tier identity of one allocation's
// Stage-I evaluation on a precedence-constrained batch: the sparse
// instance identity (TableKey under pmf.BackendSparse), the edges in their
// order (it fixes the order in which predecessors are composed), the
// deadline's exact bits and the allocation's (type, processors) pairs.
// The heuristic that found the allocation and the backend it searched
// on are left out: the final evaluation is sparse either way.
func EvalKey(table Key, edges []sysmodel.Edge, deadline float64, alloc sysmodel.Allocation) Key {
	h := NewHasher("cdsf-eval-v1")
	h.Bytes(table[:])
	h.Int(len(edges))
	for _, e := range edges {
		h.Int(e.From).Int(e.To)
	}
	h.Float64(deadline)
	h.Int(len(alloc))
	for _, as := range alloc {
		h.Int(as.Type).Int(as.Procs)
	}
	return h.Sum()
}

// tier separates the key spaces (and the hit/miss counters) of the
// value kinds sharing the LRU.
type tier uint8

const (
	tierResult tier = iota
	tierTable
	tierEval
)

// entry is one LRU node. A result-tier entry holds its document
// flate-compressed in result and the document's length in rawLen.
type entry struct {
	tier   tier
	key    Key
	size   int64
	result []byte
	rawLen int
	table  *Table
	eval   *Eval
}

// Options configures a Cache.
type Options struct {
	// MaxBytes bounds the total estimated resident size of the cached
	// values across all tiers; the least recently used entries are
	// evicted past it. Non-positive means 32 MiB: a workload reuses a
	// few MiB at most (one DAG instance's sparse and grid tables are
	// ~0.4 MiB, a synthetic Stage-I table ~2.5 MiB per deadline), and a
	// larger bound only keeps tables that are never read again.
	MaxBytes int64
	// MaxEntries bounds the entry count the same way. Non-positive
	// means 4096.
	MaxEntries int
	// Metrics optionally mirrors the cache counters (cache.result_hits,
	// cache.result_misses, cache.table_hits, cache.table_misses,
	// cache.eval_hits, cache.eval_misses, cache.evictions) and gauges
	// (cache.bytes, cache.entries) into a registry — the /metrics
	// endpoint's view. Nil records only the internal Stats.
	Metrics *metrics.Registry
}

// Cache is the bounded content-addressed store. All methods are safe
// for concurrent use; the zero value and the nil pointer behave as an
// always-miss cache, so callers thread an optional *Cache without
// guarding every touch.
type Cache struct {
	mu    sync.Mutex
	opts  Options
	lru   *list.List // front = most recently used
	index map[Key]*list.Element
	bytes int64
	stats Stats
	instr *instr
}

// instr holds the optional metrics mirrors.
type instr struct {
	resultHits, resultMisses *metrics.Counter
	tableHits, tableMisses   *metrics.Counter
	evalHits, evalMisses     *metrics.Counter
	evictions                *metrics.Counter
	bytes, entries           *metrics.Gauge
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	ResultHits, ResultMisses int64
	TableHits, TableMisses   int64
	EvalHits, EvalMisses     int64
	Evictions                int64
	Entries                  int
	Bytes                    int64
}

// New builds a cache. See Options for the defaults.
func New(opts Options) *Cache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 32 << 20
	}
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	c := &Cache{
		opts:  opts,
		lru:   list.New(),
		index: map[Key]*list.Element{},
	}
	if reg := opts.Metrics; reg != nil {
		c.instr = &instr{
			resultHits:   reg.Counter("cache.result_hits"),
			resultMisses: reg.Counter("cache.result_misses"),
			tableHits:    reg.Counter("cache.table_hits"),
			tableMisses:  reg.Counter("cache.table_misses"),
			evalHits:     reg.Counter("cache.eval_hits"),
			evalMisses:   reg.Counter("cache.eval_misses"),
			evictions:    reg.Counter("cache.evictions"),
			bytes:        reg.Gauge("cache.bytes"),
			entries:      reg.Gauge("cache.entries"),
		}
	}
	return c
}

// get looks a key up in one tier and promotes it on hit. Tiers share
// the key space formally but every key embeds a domain label, so a
// result key can never alias a table key; the tier check is defensive.
func (c *Cache) get(t tier, k Key) *entry {
	el, ok := c.index[k]
	if !ok {
		return nil
	}
	e := el.Value.(*entry)
	if e.tier != t {
		return nil
	}
	c.lru.MoveToFront(el)
	return e
}

// put inserts (or refreshes) an entry and evicts past the bounds.
func (c *Cache) put(e *entry) {
	if old, ok := c.index[e.key]; ok {
		// Same content hash, same value: refresh recency only.
		c.lru.MoveToFront(old)
		return
	}
	if e.size > c.opts.MaxBytes {
		// A value larger than the whole budget would evict everything
		// and then still not fit.
		return
	}
	c.index[e.key] = c.lru.PushFront(e)
	c.bytes += e.size
	for (c.bytes > c.opts.MaxBytes || c.lru.Len() > c.opts.MaxEntries) && c.lru.Len() > 1 {
		c.evictOldest()
	}
	c.updateGauges()
}

// evictOldest drops the least recently used entry.
func (c *Cache) evictOldest() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := c.lru.Remove(el).(*entry)
	delete(c.index, e.key)
	c.bytes -= e.size
	c.stats.Evictions++
	if c.instr != nil {
		c.instr.evictions.Inc()
	}
}

// updateGauges mirrors the size accounting into the metrics registry.
func (c *Cache) updateGauges() {
	if c.instr != nil {
		c.instr.bytes.Set(float64(c.bytes))
		c.instr.entries.Set(float64(c.lru.Len()))
	}
}

// GetResult returns the cached result document for the key, inflated
// into a fresh buffer the caller owns.
func (c *Cache) GetResult(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	var z []byte
	var n int
	if e := c.get(tierResult, k); e != nil {
		c.stats.ResultHits++
		if c.instr != nil {
			c.instr.resultHits.Inc()
		}
		z, n = e.result, e.rawLen
	} else {
		c.stats.ResultMisses++
		if c.instr != nil {
			c.instr.resultMisses.Inc()
		}
	}
	c.mu.Unlock()
	if z == nil {
		return nil, false
	}
	// Stored bytes are immutable, so they inflate outside the lock.
	return inflate(z, n), true
}

// PutResult stores a finished result document under the key,
// compressed; the LRU charges the compressed bytes. The caller may keep
// mutating its buffer.
func (c *Cache) PutResult(k Key, doc []byte) {
	if c == nil || len(doc) == 0 {
		return
	}
	z := deflate(doc)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&entry{tier: tierResult, key: k, size: int64(len(z)) + 96, result: z, rawLen: len(doc)})
}

// A flate compressor costs hundreds of KiB to set up and a
// decompressor tens, so both directions reuse pooled ones.
var (
	deflaters = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(nil, flate.BestSpeed) // a valid level never errors
		return w
	}}
	inflaters sync.Pool
)

// deflate returns doc flate-compressed, in a buffer of exactly its
// length.
func deflate(doc []byte) []byte {
	var buf bytes.Buffer
	w := deflaters.Get().(*flate.Writer)
	w.Reset(&buf)
	w.Write(doc) // writes to a bytes.Buffer cannot fail
	w.Close()
	deflaters.Put(w)
	return bytes.Clone(buf.Bytes())
}

// inflate returns the n-byte document deflate compressed into z. The
// cache only inflates what it deflated itself, so a failure is a bug.
func inflate(z []byte, n int) []byte {
	src := bytes.NewReader(z)
	r, _ := inflaters.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(src)
	} else {
		_ = r.(flate.Resetter).Reset(src, nil) // resetting a decompressor cannot fail
	}
	doc := make([]byte, n)
	if _, err := io.ReadFull(r, doc); err != nil {
		panic(fmt.Sprintf("cache: inflating a stored result: %v", err))
	}
	inflaters.Put(r)
	return doc
}

// GetTable returns the cached warm table for the key. The table and
// its distributions are shared and must be treated as immutable.
func (c *Cache) GetTable(k Key) (*Table, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.get(tierTable, k); e != nil {
		c.stats.TableHits++
		if c.instr != nil {
			c.instr.tableHits.Inc()
		}
		return e.table, true
	}
	c.stats.TableMisses++
	if c.instr != nil {
		c.instr.tableMisses.Inc()
	}
	return nil, false
}

// PutTable stores a warm table under the key. The cache takes shared
// ownership: the table, its cell slice, and every distribution must
// not be mutated (or Released) afterwards.
func (c *Cache) PutTable(k Key, t *Table) {
	if c == nil || t == nil || len(t.Cells) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&entry{tier: tierTable, key: k, size: t.footprint(), table: t})
}

// GetEval returns the cached evaluation for the key. It is shared and
// must be treated as immutable.
func (c *Cache) GetEval(k Key) (*Eval, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.get(tierEval, k); e != nil {
		c.stats.EvalHits++
		if c.instr != nil {
			c.instr.evalHits.Inc()
		}
		return e.eval, true
	}
	c.stats.EvalMisses++
	if c.instr != nil {
		c.instr.evalMisses.Inc()
	}
	return nil, false
}

// PutEval stores an evaluation under the key. The cache takes shared
// ownership: the Eval and its slices must not be mutated afterwards.
func (c *Cache) PutEval(k Key, ev *Eval) {
	if c == nil || ev == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&entry{tier: tierEval, key: k, size: ev.footprint(), eval: ev})
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	return s
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// ParseSize parses a human-friendly byte size for the -cache flag:
// a plain integer is bytes, and the binary suffixes k/kb/kib, m/mb/mib,
// g/gb/gib (case-insensitive) scale by 1024, 1024^2, 1024^3.
func ParseSize(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("cache: empty size")
	}
	mult := int64(1)
	for _, sfx := range []struct {
		tag string
		m   int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
		{"b", 1},
	} {
		if strings.HasSuffix(t, sfx.tag) {
			mult = sfx.m
			t = strings.TrimSuffix(t, sfx.tag)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("cache: invalid size %q (want e.g. 268435456, 256MiB, 1GiB)", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("cache: size %q overflows", s)
	}
	return n * mult, nil
}
