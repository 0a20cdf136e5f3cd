package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
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
	j, ok, err := m.Get(id)
	if err != nil || !ok || j.Env.State != api.JobDone {
		t.Fatalf("job after lifecycle: ok=%v err=%v %+v", ok, err, j.Env)
	}
	if string(j.Env.Result) != string(result) {
		t.Errorf("result %s", j.Env.Result)
	}
	if j.Request != nil {
		t.Errorf("done job still holds its request %s", j.Request)
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
	if _, ok, _ := m.Get("job-999999"); ok {
		t.Error("unaccepted job materialized")
	}
	_ = m.Append(Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSimulate})
	_ = m.Append(Record{Job: id, Type: events.TypeStarted})
	_ = m.Append(Record{Job: id, Type: events.TypeProgress,
		Progress: &tracing.ProgressSnapshot{Replications: tracing.Counts{Done: 3, Planned: 9}}})
	j, _, _ := m.Get(id)
	if j.Env.State != api.JobRunning {
		t.Fatalf("running job %+v", j.Env)
	}
	if j.Env.Progress == nil || j.Env.Progress.Replications.Done != 3 {
		t.Errorf("progress %+v", j.Env.Progress)
	}
	// A re-queue (crash recovery) resets the slate.
	_ = m.Append(Record{Job: id, Type: events.TypeQueued, Detail: "recovered"})
	j, _, _ = m.Get(id)
	if j.Env.State != api.JobQueued || j.Env.Started != nil {
		t.Fatalf("requeued job %+v", j.Env)
	}
	// Failure carries the message.
	_ = m.Append(Record{Job: id, Type: events.TypeFailed, Detail: "boom"})
	j, _, _ = m.Get(id)
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
	j, ok, err := w2.Get(doneID)
	if err != nil || !ok || j.Env.State != api.JobDone || string(j.Env.Result) != string(result) {
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
	if j, ok, err := w2.Get(id); err != nil || !ok || j.Env.State != api.JobDone {
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
	if j, ok, err := w3.Get(id2); err != nil || !ok || j.Env.State != api.JobDone {
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

// doneFrame returns where the WAL table located a done job's result.
func doneFrame(t *testing.T, w *WAL, id string) (frameRef, json.RawMessage) {
	t.Helper()
	w.t.mu.Lock()
	defer w.t.mu.Unlock()
	e, ok := w.t.jobs[id]
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return e.job.result, e.job.Env.Result
}

// TestWALServesResultsFromJournal pins where a finished result lives on
// the WAL: the table keeps only its frame's location, List leaves it
// there, Get and Resolve read the bytes back, and after a restart the
// result is byte-identical.
func TestWALServesResultsFromJournal(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Results are journaled in encoding/json's compact form, the form
	// the service marshals them in, so Get returns them unchanged.
	doc, err := json.Marshal(map[string]any{"phi1": 0.745, "alloc": []int{2, 8}, "note": "<ok> & done"})
	if err != nil {
		t.Fatal(err)
	}
	id, result := lifecycle(t, w, `{"seed":4}`, string(doc))
	if ref, held := doneFrame(t, w, id); ref.n == 0 || held != nil {
		t.Fatalf("live table holds frame %+v and %d result bytes, want only the frame", ref, len(held))
	}
	check := func(s JobStore, when string) {
		t.Helper()
		j, ok, err := s.Get(id)
		if err != nil || !ok || j.Env.State != api.JobDone || string(j.Env.Result) != string(result) {
			t.Fatalf("%s: Get = ok %v err %v state %s result %s, want %s", when, ok, err, j.Env.State, j.Env.Result, result)
		}
		jobs := s.List()
		if len(jobs) != 1 || jobs[0].Env.State != api.JobDone || jobs[0].Env.Result != nil {
			t.Fatalf("%s: List = %+v, want the done job without its result read back", when, jobs)
		}
		if err := s.Resolve(&jobs[0]); err != nil || string(jobs[0].Env.Result) != string(result) {
			t.Fatalf("%s: Resolve = %v, result %s, want %s", when, err, jobs[0].Env.Result, result)
		}
	}
	check(w, "live")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if ref, held := doneFrame(t, w2, id); ref.n == 0 || held != nil {
		t.Fatalf("replayed table holds frame %+v and %d result bytes, want only the frame", ref, len(held))
	}
	check(w2, "after restart")
}

// TestWALCorruptResultFrameIsAnError damages a done job's journal frame
// after it was written: Get and Resolve report the failed check as an
// error instead of serving an empty or damaged result, the job is still
// known and done, and List, which reads no results, still lists it.
func TestWALCorruptResultFrameIsAnError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	id, _ := lifecycle(t, w, `{}`, `{"phi1":0.5}`)
	ref, _ := doneFrame(t, w, id)
	f, err := os.OpenFile(filepath.Join(dir, "jobs.wal"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	at := ref.off + 8 + int64(ref.n)/2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0x40}, at); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j, ok, err := w.Get(id)
	if err == nil || !ok || j.Env.State != api.JobDone || j.Env.Result != nil {
		t.Fatalf("Get of a damaged result frame = ok %v err %v state %s result %q, want an error", ok, err, j.Env.State, j.Env.Result)
	}
	jobs := w.List()
	if len(jobs) != 1 || jobs[0].Env.State != api.JobDone {
		t.Fatalf("List over a damaged result frame = %+v, want the done job", jobs)
	}
	if err := w.Resolve(&jobs[0]); err == nil {
		t.Error("Resolve of a damaged result frame reported no error")
	}
}

// TestWALUnwrittenDoneServedFromMemory pins the degraded-disk path: a
// done record whose frame cannot be written keeps its result in
// memory, so the job is still served as done with its result.
func TestWALUnwrittenDoneServedFromMemory(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id := w.NextID()
	for _, rec := range []Record{
		{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve, Request: []byte(`{}`)},
		{Job: id, Type: events.TypeQueued},
		{Job: id, Type: events.TypeStarted},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.f.Close() // the disk goes away behind the store
	result := []byte(`{"phi1":0.25}`)
	if err := w.Append(Record{Job: id, Type: events.TypeDone, Result: result}); err == nil {
		t.Fatal("done append on a closed journal reported no error")
	}
	j, ok, err := w.Get(id)
	if err != nil || !ok || j.Env.State != api.JobDone || string(j.Env.Result) != string(result) {
		t.Fatalf("unwritten done job = ok %v err %v state %s result %s", ok, err, j.Env.State, j.Env.Result)
	}
	_ = w.Close() // its sync and close fail on the closed file
}

// shortWrites fails its next write after writing only half the frame,
// as a disk that fills up part-way through an append.
type shortWrites struct {
	journalFile
	cut bool
}

func (s *shortWrites) WriteAt(b []byte, off int64) (int, error) {
	if !s.cut {
		return s.journalFile.WriteAt(b, off)
	}
	s.cut = false
	n, _ := s.journalFile.WriteAt(b[:len(b)/2], off)
	return n, syscall.ENOSPC
}

// TestWALShortWriteKeepsLaterResultsReadable tears one done frame half
// way: that job is served from memory, the next append overwrites the
// torn bytes, so every later result is read back from where its frame
// landed, live and after a restart.
func TestWALShortWriteKeepsLaterResultsReadable(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	disk := &shortWrites{journalFile: w.f}
	w.f = disk
	torn := w.NextID()
	for _, rec := range []Record{
		{Job: torn, Type: events.TypeAccepted, Kind: api.KindSolve, Request: []byte(`{}`)},
		{Job: torn, Type: events.TypeQueued},
		{Job: torn, Type: events.TypeStarted},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	disk.cut = true
	tornResult := []byte(`{"phi1":0.125,"note":"this frame is torn half way"}`)
	if err := w.Append(Record{Job: torn, Type: events.TypeDone, Result: tornResult}); err == nil {
		t.Fatal("a short write reported no error")
	}
	var later []string
	for _, res := range []string{`{"phi1":0.5}`, `{"phi1":0.75,"alloc":[2,8]}`} {
		id, _ := lifecycle(t, w, `{}`, res)
		later = append(later, id)
	}
	check := func(s JobStore, when string, want map[string]string) {
		t.Helper()
		for id, res := range want {
			j, ok, err := s.Get(id)
			if err != nil || !ok || j.Env.State != api.JobDone || string(j.Env.Result) != res {
				t.Errorf("%s: Get(%s) = ok %v err %v state %s result %s, want %s", when, id, ok, err, j.Env.State, j.Env.Result, res)
			}
		}
		for _, j := range s.List() {
			if err := s.Resolve(&j); err != nil {
				t.Errorf("%s: Resolve(%s): %v", when, j.Env.ID, err)
			}
		}
	}
	want := map[string]string{torn: string(tornResult), later[0]: `{"phi1":0.5}`, later[1]: `{"phi1":0.75,"alloc":[2,8]}`}
	check(w, "live", want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// The torn done never reached the disk: that job comes back
	// interrupted, and the later ones come back done.
	if inter := w2.Interrupted(); len(inter) != 1 || inter[0].Env.ID != torn {
		t.Errorf("interrupted after restart: %+v, want %s", inter, torn)
	}
	delete(want, torn)
	check(w2, "after restart", want)
}
