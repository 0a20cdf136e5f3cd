package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/events"
	"cdsf/internal/tracing"
)

// openAppend opens the journal file directly, for tests that corrupt
// or replace it behind the store's back.
func openAppend(dir string) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, "jobs.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// lifecycle appends a full accepted->queued->started->done sequence
// for one job and returns the result bytes it stored.
func lifecycle(t *testing.T, s JobStore, req, res string) (string, []byte) {
	t.Helper()
	id := s.NextID()
	result := []byte(res)
	for _, rec := range []Record{
		{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve, Request: []byte(req)},
		{Job: id, Type: events.TypeQueued},
		{Job: id, Type: events.TypeStarted},
		{Job: id, Type: events.TypeDone, Result: result},
	} {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %s: %v", rec.Type, err)
		}
	}
	return id, result
}

func TestMemoryLifecycle(t *testing.T) {
	m := NewMemory()
	if m.Backend() != "memory" {
		t.Fatalf("backend %q", m.Backend())
	}
	id, result := lifecycle(t, m, `{"heuristic":"greedy"}`, `{"phi1":1}`)
	if id != "job-000001" {
		t.Errorf("first id %q, want job-000001", id)
	}
	j, ok := m.Get(id)
	if !ok || j.Env.State != api.JobDone {
		t.Fatalf("job after lifecycle: ok=%v %+v", ok, j.Env)
	}
	if string(j.Env.Result) != string(result) {
		t.Errorf("result %s", j.Env.Result)
	}
	if string(j.Request) != `{"heuristic":"greedy"}` {
		t.Errorf("request %s", j.Request)
	}
	if j.Env.Started == nil || j.Env.Finished == nil {
		t.Error("missing timestamps")
	}
	if got := m.List(); len(got) != 1 || got[0].Env.ID != id {
		t.Errorf("list %+v", got)
	}
	if got := m.Interrupted(); got != nil {
		t.Errorf("memory store reported interrupted jobs: %+v", got)
	}
	st := m.Stats()
	if st.Backend != "memory" || st.Jobs != 1 || st.Records != 4 {
		t.Errorf("stats %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestApplyTransitions(t *testing.T) {
	m := NewMemory()
	id := m.NextID()
	// Transitions for a job never accepted are dropped, not invented.
	_ = m.Append(Record{Job: "job-999999", Type: events.TypeStarted})
	if _, ok := m.Get("job-999999"); ok {
		t.Error("unaccepted job materialized")
	}
	_ = m.Append(Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSimulate})
	_ = m.Append(Record{Job: id, Type: events.TypeStarted})
	_ = m.Append(Record{Job: id, Type: events.TypeProgress,
		Progress: &tracing.ProgressSnapshot{Replications: tracing.Counts{Done: 3, Planned: 9}}})
	j, _ := m.Get(id)
	if j.Env.State != api.JobRunning {
		t.Fatalf("running job %+v", j.Env)
	}
	if j.Env.Progress == nil || j.Env.Progress.Replications.Done != 3 {
		t.Errorf("progress %+v", j.Env.Progress)
	}
	// A re-queue (crash recovery) resets the slate.
	_ = m.Append(Record{Job: id, Type: events.TypeQueued, Detail: "recovered"})
	j, _ = m.Get(id)
	if j.Env.State != api.JobQueued || j.Env.Started != nil {
		t.Fatalf("requeued job %+v", j.Env)
	}
	// Failure carries the message.
	_ = m.Append(Record{Job: id, Type: events.TypeFailed, Detail: "boom"})
	j, _ = m.Get(id)
	if j.Env.State != api.JobFailed || j.Env.Error != "boom" {
		t.Fatalf("failed job %+v", j.Env)
	}
}

func TestWALReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Backend() != "wal" {
		t.Fatalf("backend %q", w.Backend())
	}
	doneID, result := lifecycle(t, w, `{"heuristic":"greedy"}`, `{"phi1":0.5}`)

	// A second job is accepted and started but never finishes: the
	// crash victim.
	lostID := w.NextID()
	_ = w.Append(Record{Job: lostID, Type: events.TypeAccepted, Kind: api.KindScenario, Request: []byte(`{"scenario":1}`)})
	_ = w.Append(Record{Job: lostID, Type: events.TypeQueued})
	_ = w.Append(Record{Job: lostID, Type: events.TypeStarted})
	st := w.Stats()
	if st.Records != 7 || st.Fsyncs == 0 || st.WALBytes <= int64(len(walMagic)) {
		t.Errorf("live stats %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the finished job is intact bit-for-bit, the interrupted
	// one is handed back for recovery, and ids continue past both.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	j, ok := w2.Get(doneID)
	if !ok || j.Env.State != api.JobDone || string(j.Env.Result) != string(result) {
		t.Fatalf("replayed done job: ok=%v %+v", ok, j.Env)
	}
	inter := w2.Interrupted()
	if len(inter) != 1 || inter[0].Env.ID != lostID || inter[0].Env.State.Terminal() {
		t.Fatalf("interrupted %+v", inter)
	}
	if string(inter[0].Request) != `{"scenario":1}` {
		t.Errorf("interrupted request %s", inter[0].Request)
	}
	st = w2.Stats()
	if st.ReplayedRecords != 7 || st.ReplayedJobs != 2 || st.RecoveredJobs != 1 {
		t.Errorf("replay stats %+v", st)
	}
	if next := w2.NextID(); next != "job-000003" {
		t.Errorf("id after replay %q, want job-000003", next)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := lifecycle(t, w, `{}`, `{"ok":true}`)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: garbage where the next frame would start.
	f, err := openAppend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x12, 0x34, 0x56}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if j, ok := w2.Get(id); !ok || j.Env.State != api.JobDone {
		t.Fatalf("good frames lost to the torn tail: %+v", j.Env)
	}
	st := w2.Stats()
	if st.TruncatedBytes != 3 || st.ReplayedRecords != 4 {
		t.Errorf("stats after truncation %+v", st)
	}
	// Appends continue cleanly from the truncated offset.
	id2, _ := lifecycle(t, w2, `{}`, `{"again":1}`)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if j, ok := w3.Get(id2); !ok || j.Env.State != api.JobDone {
		t.Fatalf("post-truncation job lost: %+v", j.Env)
	}
}

// TestWALReplaysRetiredAssignedFrames pins the upgrade path from the
// removed coordinator/worker mode: a journal written by a coordinator
// holds assigned frames (a lease with the worker's name in "node"),
// and replay must read them in full, ignore them, and recover the job.
func TestWALReplaysRetiredAssignedFrames(t *testing.T) {
	dir := t.TempDir()
	f, err := openAppend(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal := []byte(walMagic)
	for _, payload := range []string{
		`{"seq":1,"time":"2026-01-01T00:00:00Z","job":"job-000001","type":"accepted","kind":"solve","request":{"heuristic":"greedy","seed":5}}`,
		`{"seq":2,"time":"2026-01-01T00:00:00Z","job":"job-000001","type":"queued"}`,
		`{"seq":3,"time":"2026-01-01T00:00:01Z","job":"job-000001","type":"started"}`,
		`{"seq":4,"time":"2026-01-01T00:00:01Z","job":"job-000001","type":"assigned","node":"w1"}`,
	} {
		var head [8]byte
		binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(head[4:8], crc32.Checksum([]byte(payload), castagnoli))
		journal = append(append(journal, head[:]...), payload...)
	}
	if _, err := f.Write(journal); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := w.Stats()
	if st.TruncatedBytes != 0 || st.ReplayedRecords != 4 {
		t.Errorf("replay stats %+v, want 4 records and no truncation", st)
	}
	inter := w.Interrupted()
	if len(inter) != 1 || inter[0].Env.ID != "job-000001" || inter[0].Env.State != api.JobRunning {
		t.Fatalf("interrupted %+v, want job-000001 running", inter)
	}
	if string(inter[0].Request) != `{"heuristic":"greedy","seed":5}` {
		t.Errorf("interrupted request %s", inter[0].Request)
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	f, err := openAppend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not a journal at all")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenWAL(dir, WALOptions{}); err == nil {
		t.Fatal("foreign file accepted as a journal")
	}
}

func TestWALConcurrentDurableAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	ids := make([]string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		ids[i] = w.NextID()
	}
	for i := 0; i < n; i++ {
		go func(id string) {
			err := w.Append(Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve, Request: []byte(`{}`)})
			if err == nil {
				err = w.Append(Record{Job: id, Type: events.TypeDone, Result: []byte(`{"i":1}`)})
			}
			errs <- err
		}(ids[i])
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
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
	if st := w2.Stats(); st.ReplayedJobs != n || st.RecoveredJobs != 0 {
		t.Errorf("replay after concurrent appends: %+v", st)
	}
}

func TestRecordJSONOmitsEmptyPayloads(t *testing.T) {
	data, err := json.Marshal(Record{Job: "job-000001", Type: events.TypeQueued, Time: time.Unix(0, 0).UTC()})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"request", "result", "cache", "progress", "kind", "detail"} {
		if contains(data, field) {
			t.Errorf("empty %s serialized: %s", field, data)
		}
	}
}

func contains(data []byte, field string) bool {
	return json.Valid(data) && string(data) != "" && jsonHasKey(data, field)
}

func jsonHasKey(data []byte, key string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

// TestWALSingleWriter pins the flock exclusion: a second process (or
// a second store in the same process) must not replay — and possibly
// truncate — a journal another writer holds open.
func TestWALSingleWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{}); err == nil {
		t.Fatal("second OpenWAL on a held journal succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	w2.Close()
}
