package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"

	"cdsf/internal/api"
	"cdsf/internal/cache"
	"cdsf/internal/store"
)

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobsRetainLessThanTheirResult is the memory guard on what
// a served job leaves behind. On a WAL-backed server with the cache on,
// 200 fresh-seed scenario jobs run to done; the live heap they add,
// per job, must be smaller than one job's result document. The WAL
// serves results from the journal and the result tier holds them
// compressed, so what stays is the job's envelope, events and cache
// entry — not one or two copies of its result.
func TestFinishedJobsRetainLessThanTheirResult(t *testing.T) {
	w, err := store.OpenWAL(t.TempDir(), store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Store: w, Cache: cache.New(cache.Options{})})
	run := func(seed uint64) int {
		var j api.Job
		if resp := post(t, ts.URL+"/v1/scenario", api.ScenarioRequest{Scenario: 4, Reps: 2, Seed: seed}, &j); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: submit status %d", seed, resp.StatusCode)
		}
		// The service indents responses; the stored document is compact.
		var doc bytes.Buffer
		if err := json.Compact(&doc, waitState(t, ts.URL, j.ID, api.JobDone).Result); err != nil {
			t.Fatal(err)
		}
		return doc.Len()
	}
	// Warm up: the shared warm table, the HTTP connection, the pools.
	for seed := uint64(1); seed <= 10; seed++ {
		run(seed)
	}
	const jobs = 200
	before := heapAlloc()
	doc := 0
	for seed := uint64(1000); seed < 1000+jobs; seed++ {
		doc = max(doc, run(seed))
	}
	after := heapAlloc()
	perJob := (float64(after) - float64(before)) / jobs
	t.Logf("retained heap per finished job: %.0f bytes (result document %d bytes)", perJob, doc)
	if perJob >= float64(doc) {
		t.Errorf("each finished job retains %.0f bytes of heap, at least its %d-byte result document", perJob, doc)
	}
}
