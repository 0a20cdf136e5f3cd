package store

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"cdsf/internal/api"
	"cdsf/internal/events"
	"cdsf/internal/tracing"
)

// The document sizes of a dag-service job: the canonical request of an
// 8-application DAG instance, and its solve result.
const (
	serviceRequestBytes = 2400
	serviceResultBytes  = 3600
)

// jsonDoc returns a compact JSON object of exactly n bytes.
func jsonDoc(n int) []byte {
	return fmt.Appendf(nil, `{"pad":"%s"}`, bytes.Repeat([]byte{'x'}, n-10))
}

// stores opens one store of each backend, the WAL under a fresh test
// directory; both are closed at cleanup.
func stores(tb testing.TB) []JobStore {
	tb.Helper()
	w, err := OpenWAL(tb.TempDir(), WALOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	m := NewMemory()
	tb.Cleanup(func() {
		_ = m.Close()
		if err := w.Close(); err != nil {
			tb.Error(err)
		}
	})
	return []JobStore{m, w}
}

// serviceLifecycle runs one job through the lifecycle a dag-service
// solve records: accepted with its own copy of req, queued, started,
// one progress sample, and done with its own copy of res and a cache
// block with warm counts. That derives six events.
func serviceLifecycle(s JobStore, req, res []byte) error {
	id := s.NextID()
	for _, rec := range []Record{
		{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve, Request: bytes.Clone(req)},
		{Job: id, Type: events.TypeQueued},
		{Job: id, Type: events.TypeStarted},
		{Job: id, Type: events.TypeProgress,
			Progress: &tracing.ProgressSnapshot{Replications: tracing.Counts{Done: 1, Planned: 2}}},
		{Job: id, Type: events.TypeDone, Result: bytes.Clone(res),
			Cache: &api.CacheInfo{Key: fmt.Sprintf("%064x", len(id)), WarmHits: 24}},
	} {
		if err := s.Append(rec); err != nil {
			return fmt.Errorf("append %s: %w", rec.Type, err)
		}
	}
	return nil
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRequestKeptUntilTerminal pins what a job's request document is
// kept for: Get serves it while the job is queued or running, on both
// backends, and it is gone once the job is done, failed or cancelled.
// A WAL reopened over an interrupted job still hands the request back
// for recovery, while the jobs that finished before the restart replay
// without theirs.
func TestRequestKeptUntilTerminal(t *testing.T) {
	for _, s := range stores(t) {
		request := func(id string) string {
			t.Helper()
			j, ok, err := s.Get(id)
			if err != nil || !ok {
				t.Fatalf("%s: Get(%s) = ok %v err %v", s.Backend(), id, ok, err)
			}
			return string(j.Request)
		}
		for _, end := range []Record{
			{Type: events.TypeDone, Result: []byte(`{"phi1":0.5}`)},
			{Type: events.TypeFailed, Detail: "boom"},
			{Type: events.TypeCancelled, Detail: "context canceled"},
		} {
			id := s.NextID()
			req := fmt.Sprintf(`{"job":%q}`, id)
			for _, rec := range []Record{
				{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve, Request: []byte(req)},
				{Job: id, Type: events.TypeQueued},
				{Job: id, Type: events.TypeStarted},
			} {
				if err := s.Append(rec); err != nil {
					t.Fatal(err)
				}
				if got := request(id); got != req {
					t.Errorf("%s: %s job holds request %q, want %q", s.Backend(), rec.Type, got, req)
				}
			}
			end.Job = id
			if err := s.Append(end); err != nil {
				t.Fatal(err)
			}
			if got := request(id); got != "" {
				t.Errorf("%s: %s job still holds request %q", s.Backend(), end.Type, got)
			}
		}
	}

	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := lifecycle(t, w, `{"seed":1}`, `{"phi1":0.5}`)
	lost := w.NextID()
	for _, rec := range []Record{
		{Job: lost, Type: events.TypeAccepted, Kind: api.KindScenario, Request: []byte(`{"seed":2}`)},
		{Job: lost, Type: events.TypeQueued},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if inter := w2.Interrupted(); len(inter) != 1 || inter[0].Env.ID != lost || string(inter[0].Request) != `{"seed":2}` {
		t.Errorf("interrupted after reopen = %+v, want %s with its request", inter, lost)
	}
	if j, ok, err := w2.Get(done); err != nil || !ok || j.Env.State != api.JobDone || j.Request != nil {
		t.Errorf("replayed done job = ok %v err %v state %s request %q, want done without its request", ok, err, j.Env.State, j.Request)
	}
}

// TestFinishedJobFootprint bounds what a finished dag-service-sized job
// keeps resident: at most 1.5 KiB on the WAL, whose table keeps the
// result on disk, and at most the result's heap block plus 1.5 KiB on
// the memory store. Keeping the 2.4 KB request, or an event log with
// append's slack, exceeds both bounds.
func TestFinishedJobFootprint(t *testing.T) {
	const jobs = 2000
	req, res := jsonDoc(serviceRequestBytes), jsonDoc(serviceResultBytes)
	for _, s := range stores(t) {
		bound := int64(1536)
		if s.Backend() == "memory" {
			// The memory store keeps the result bytes it was handed,
			// whose block the allocator rounds up to a size class, as
			// append rounds a capacity.
			bound += int64(cap(append([]byte(nil), res...)))
		}
		before := heapAlloc()
		for i := 0; i < jobs; i++ {
			if err := serviceLifecycle(s, req, res); err != nil {
				t.Fatal(err)
			}
		}
		perJob := (heapAlloc() - before) / jobs
		runtime.KeepAlive(s)
		t.Logf("%s: %d B resident per finished job", s.Backend(), perJob)
		if perJob > bound {
			t.Errorf("%s: a finished job keeps %d B resident, want at most %d", s.Backend(), perJob, bound)
		}
	}
}

// BenchmarkJobLifecycle runs one dag-service-sized job lifecycle per op
// (serviceLifecycle) on each backend; retained-B/job is the live heap
// the finished jobs left behind, per job.
func BenchmarkJobLifecycle(b *testing.B) {
	req, res := jsonDoc(serviceRequestBytes), jsonDoc(serviceResultBytes)
	for _, s := range stores(b) {
		b.Run(s.Backend(), func(b *testing.B) {
			before := heapAlloc()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := serviceLifecycle(s, req, res); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(heapAlloc()-before)/float64(b.N), "retained-B/job")
		})
	}
}
