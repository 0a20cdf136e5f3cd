package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cdsf/internal/api"
	"cdsf/internal/events"
	"cdsf/internal/tracing"
)

// at returns a fixed record time, s seconds past a pinned origin.
func at(s int) time.Time {
	return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC).Add(time.Duration(s) * time.Second)
}

// appendAll appends recs in order, failing the test on any error.
func appendAll(t *testing.T, s JobStore, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %s: %v", rec.Type, err)
		}
	}
}

// eventSummary renders the fields the derivation rules fix, one string
// per event, so a mismatch prints readably.
func eventSummary(evs []events.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = fmt.Sprintf("%d %s %s %q %d/%d", ev.Seq, ev.Job, ev.Type, ev.Detail, ev.WarmHits, ev.WarmMisses)
	}
	return out
}

func TestEventLogSequencesPerJob(t *testing.T) {
	m := NewMemory()
	a, b := m.NextID(), m.NextID()
	appendAll(t, m,
		Record{Job: a, Type: events.TypeAccepted, Kind: api.KindSolve, Time: at(0)},
		Record{Job: b, Type: events.TypeAccepted, Kind: api.KindScenario, Time: at(1)},
		Record{Job: a, Type: events.TypeQueued, Time: at(2)},
		Record{Job: a, Type: events.TypeStarted, Time: at(3)},
		Record{Job: b, Type: events.TypeQueued, Time: at(4)},
		Record{Job: a, Type: events.TypeFailed, Detail: "boom", Time: at(5)},
	)
	evs, _, ok := m.Events(a, 0)
	if !ok {
		t.Fatal("Events: job unknown")
	}
	want := []string{
		"1 " + a + ` accepted "solve" 0/0`,
		"2 " + a + ` queued "" 0/0`,
		"3 " + a + ` started "" 0/0`,
		"4 " + a + ` failed "boom" 0/0`,
	}
	if got := eventSummary(evs); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}
	for i, ev := range evs {
		if want := at([]int{0, 2, 3, 5}[i]); !ev.Time.Equal(want) {
			t.Errorf("event %d time %v, want the record's %v", i, ev.Time, want)
		}
	}
	// Seqs are per job: b's log starts at 1 too.
	bevs, _, _ := m.Events(b, 0)
	if len(bevs) != 2 || bevs[0].Seq != 1 || bevs[0].Detail != string(api.KindScenario) || bevs[1].Seq != 2 {
		t.Errorf("second job's log %q", eventSummary(bevs))
	}
	// The cursor is exclusive.
	if got, _, _ := m.Events(a, 2); len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Errorf("Events(after 2) = %q, want seqs 3, 4", eventSummary(got))
	}
	if got, _, _ := m.Events(a, 4); got != nil {
		t.Errorf("Events(after last) = %q, want none", eventSummary(got))
	}
	if got, wake, ok := m.Events("job-999999", 0); ok || got != nil || wake != nil {
		t.Error("Events reported an unknown job")
	}
}

func TestEventLogDerivesCacheEvents(t *testing.T) {
	m := NewMemory()
	hit, warm, cold := m.NextID(), m.NextID(), m.NextID()
	appendAll(t, m,
		Record{Job: hit, Type: events.TypeAccepted, Kind: api.KindSolve},
		Record{Job: hit, Type: events.TypeDone, Result: []byte(`{}`),
			Cache: &api.CacheInfo{Key: "k-hit", ResultHit: true}},
	)
	for _, id := range []string{warm, cold} {
		appendAll(t, m,
			Record{Job: id, Type: events.TypeAccepted, Kind: api.KindScenario},
			Record{Job: id, Type: events.TypeQueued},
			Record{Job: id, Type: events.TypeStarted},
			// A retired record type (a coordinator lease) adds no event.
			Record{Job: id, Type: "assigned"},
		)
	}
	appendAll(t, m,
		Record{Job: warm, Type: events.TypeDone, Result: []byte(`{}`),
			Cache: &api.CacheInfo{Key: "k-warm", WarmHits: 3, WarmMisses: 1}},
		Record{Job: cold, Type: events.TypeDone, Result: []byte(`{}`),
			Cache: &api.CacheInfo{Key: "k-cold"}},
	)
	for id, want := range map[string][]string{
		hit: {
			"1 " + hit + ` accepted "solve" 0/0`,
			"2 " + hit + ` cache_result_hit "k-hit" 0/0`,
			"3 " + hit + ` done "replayed from cache" 0/0`,
		},
		warm: {
			"1 " + warm + ` accepted "scenario" 0/0`,
			"2 " + warm + ` queued "" 0/0`,
			"3 " + warm + ` started "" 0/0`,
			"4 " + warm + ` cache_warm "" 3/1`,
			"5 " + warm + ` done "" 0/0`,
		},
		cold: {
			"1 " + cold + ` accepted "scenario" 0/0`,
			"2 " + cold + ` queued "" 0/0`,
			"3 " + cold + ` started "" 0/0`,
			"4 " + cold + ` done "" 0/0`,
		},
	} {
		evs, _, _ := m.Events(id, 0)
		if got := eventSummary(evs); !reflect.DeepEqual(got, want) {
			t.Errorf("job %s events %q, want %q", id, got, want)
		}
	}
	// The derived events carry the done record's time.
	evs, _, _ := m.Events(hit, 0)
	if !evs[1].Time.Equal(evs[2].Time) {
		t.Errorf("cache_result_hit at %v, done at %v", evs[1].Time, evs[2].Time)
	}
}

func TestEventLogProgressSnapshot(t *testing.T) {
	m := NewMemory()
	id := m.NextID()
	snap := &tracing.ProgressSnapshot{Replications: tracing.Counts{Done: 2, Planned: 5}}
	appendAll(t, m,
		Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSimulate},
		Record{Job: id, Type: events.TypeProgress, Progress: snap},
	)
	evs, _, _ := m.Events(id, 0)
	if len(evs) != 2 || evs[1].Type != events.TypeProgress || !reflect.DeepEqual(evs[1].Progress, snap) {
		t.Fatalf("progress event %+v", evs)
	}
	if evs[0].Progress != nil {
		t.Error("accepted event carries a progress snapshot")
	}
}

func TestEventLogBound(t *testing.T) {
	m := NewMemory()
	id := m.NextID()
	// 4100 records: the accepted one and 4099 progress ticks.
	appendAll(t, m, Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSimulate})
	for i := 1; i < 4100; i++ {
		appendAll(t, m, Record{Job: id, Type: events.TypeProgress})
	}
	evs, _, _ := m.Events(id, 0)
	if len(evs) != eventBound || eventBound != 4096 {
		t.Fatalf("retained %d events, want 4096", len(evs))
	}
	if evs[0].Seq != 5 || evs[len(evs)-1].Seq != 4100 {
		t.Errorf("retained seqs %d..%d, want 5..4100", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	// A cursor older than the retained window returns everything
	// retained; the reader sees the gap in the numbering.
	for _, after := range []int64{1, 4} {
		if got, _, _ := m.Events(id, after); len(got) != 4096 || got[0].Seq != 5 {
			t.Errorf("Events(after %d) returned %d events from seq %d", after, len(got), got[0].Seq)
		}
	}
	if got, _, _ := m.Events(id, 5); len(got) != 4095 || got[0].Seq != 6 {
		t.Errorf("Events(after 5) returned %d events", len(got))
	}
}

// closed reports whether a wake channel has been closed.
func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

func TestEventLogWake(t *testing.T) {
	m := NewMemory()
	id := m.NextID()
	appendAll(t, m, Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve})
	_, wake, _ := m.Events(id, 0)
	if wake == nil || closed(wake) {
		t.Fatal("a live job's wake channel is nil or already closed")
	}
	if _, again, _ := m.Events(id, 1); again != wake {
		t.Error("readers waiting for the same event got different channels")
	}
	appendAll(t, m, Record{Job: id, Type: events.TypeQueued})
	if !closed(wake) {
		t.Fatal("wake channel still open after the job's next event")
	}
	_, wake, _ = m.Events(id, 2)
	if wake == nil || closed(wake) {
		t.Fatal("no fresh wake channel after the first one closed")
	}
	// Another job's event does not wake this job's readers.
	other := m.NextID()
	appendAll(t, m, Record{Job: other, Type: events.TypeAccepted, Kind: api.KindSolve})
	if closed(wake) {
		t.Error("wake channel closed by another job's event")
	}
	appendAll(t, m, Record{Job: id, Type: events.TypeCancelled, Detail: "stop"})
	if !closed(wake) {
		t.Error("wake channel still open after the terminal event")
	}
	evs, wake, _ := m.Events(id, 0)
	if wake != nil {
		t.Error("a finished log still hands out a wake channel")
	}
	if len(evs) != 3 || evs[2].Type != events.TypeCancelled {
		t.Errorf("finished log %q", eventSummary(evs))
	}
}

func TestWALReplayRebuildsEventLogs(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := lifecycle(t, w, `{"heuristic":"greedy"}`, `{"phi1":1}`)
	hit, warm, lost := w.NextID(), w.NextID(), w.NextID()
	appendAll(t, w,
		Record{Job: hit, Type: events.TypeAccepted, Kind: api.KindSolve, Request: []byte(`{}`)},
		Record{Job: hit, Type: events.TypeDone, Result: []byte(`{}`), Cache: &api.CacheInfo{Key: "k", ResultHit: true}},
		Record{Job: warm, Type: events.TypeAccepted, Kind: api.KindScenario, Request: []byte(`{}`)},
		Record{Job: warm, Type: events.TypeQueued},
		Record{Job: warm, Type: events.TypeStarted},
		Record{Job: warm, Type: events.TypeProgress,
			Progress: &tracing.ProgressSnapshot{Cases: tracing.Counts{Done: 1, Planned: 4}}},
		Record{Job: warm, Type: events.TypeDone, Result: []byte(`{}`), Cache: &api.CacheInfo{Key: "w", WarmHits: 2}},
		Record{Job: lost, Type: events.TypeAccepted, Kind: api.KindSimulate, Request: []byte(`{}`)},
		Record{Job: lost, Type: events.TypeQueued},
		Record{Job: lost, Type: events.TypeStarted},
	)
	ids := []string{done, hit, warm, lost}
	before := map[string][]byte{}
	for _, id := range ids {
		evs, _, _ := w.Events(id, 0)
		before[id], _ = json.Marshal(evs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for _, id := range ids {
		evs, _, ok := w2.Events(id, 0)
		after, _ := json.Marshal(evs)
		if !ok || string(after) != string(before[id]) {
			t.Errorf("job %s log after reopen:\n%s\nbefore:\n%s", id, after, before[id])
		}
	}
	// The interrupted job's log continues after its pre-crash events.
	if err := w2.Append(Record{Job: lost, Type: events.TypeQueued, Detail: "recovered after restart"}); err != nil {
		t.Fatal(err)
	}
	evs, _, _ := w2.Events(lost, 3)
	if len(evs) != 1 || evs[0].Seq != 4 || evs[0].Detail != "recovered after restart" {
		t.Errorf("continued log %q", eventSummary(evs))
	}
}

// TestWALRecordVisibleOnlyOnceDurable holds a done append between its
// frame write and its group fsync: neither the envelope nor the event
// log may show done until the fsync has returned.
func TestWALRecordVisibleOnlyOnceDurable(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	id := w.NextID()
	appendAll(t, w,
		Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSolve, Request: []byte(`{}`)},
		Record{Job: id, Type: events.TypeQueued},
		Record{Job: id, Type: events.TypeStarted},
	)
	w.mu.Lock()
	size := w.size
	w.mu.Unlock()

	// Holding waitMu parks the appender after its frame is written,
	// before it can queue for the fsync.
	w.waitMu.Lock()
	errc := make(chan error, 1)
	go func() {
		errc <- w.Append(Record{Job: id, Type: events.TypeDone, Result: []byte(`{"ok":1}`)})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		written := w.size > size
		w.mu.Unlock()
		if written {
			break
		}
		if time.Now().After(deadline) {
			w.waitMu.Unlock()
			t.Fatal("done frame never written")
		}
		time.Sleep(time.Millisecond)
	}
	j, _, _ := w.Get(id)
	evs, wake, _ := w.Events(id, 0)
	w.waitMu.Unlock()
	if j.Env.State == api.JobDone || evs[len(evs)-1].Type == events.TypeDone || wake == nil {
		t.Fatalf("done visible before its fsync: state %s, events %q", j.Env.State, eventSummary(evs))
	}

	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !closed(wake) {
		t.Error("wake channel still open after the durable done")
	}
	j, _, _ = w.Get(id)
	evs, wake, _ = w.Events(id, 0)
	if j.Env.State != api.JobDone || evs[len(evs)-1].Type != events.TypeDone || wake != nil {
		t.Errorf("done not visible after its fsync: state %s, events %q", j.Env.State, eventSummary(evs))
	}
}

// TestEventLogConcurrentFollowers runs several jobs' lifecycles
// concurrently on each store while followers loop on Events and the
// wake channel: every follower sees its job's seqs 1..n with no gap or
// repeat and ends at the terminal event. Run under -race.
func TestEventLogConcurrentFollowers(t *testing.T) {
	const jobs, followers, ticks = 4, 3, 40
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, s := range []JobStore{NewMemory(), w} {
		var wg sync.WaitGroup
		errs := make(chan error, jobs*(followers+1))
		for i := 0; i < jobs; i++ {
			id := s.NextID()
			appendAll(t, s, Record{Job: id, Type: events.TypeAccepted, Kind: api.KindSimulate, Request: []byte(`{}`)})
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs := []Record{{Job: id, Type: events.TypeQueued}, {Job: id, Type: events.TypeStarted}}
				for k := 0; k < ticks; k++ {
					recs = append(recs, Record{Job: id, Type: events.TypeProgress})
				}
				for _, rec := range append(recs, Record{Job: id, Type: events.TypeDone, Result: []byte(`{}`)}) {
					if err := s.Append(rec); err != nil {
						errs <- err
						return
					}
				}
			}()
			for f := 0; f < followers; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- follow(s, id, ticks+4)
				}()
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("%s store: %v", s.Backend(), err)
			}
		}
	}
}

// follow reads one job's log to its end the way the SSE route does and
// checks it saw seqs 1..n exactly once, ending at a terminal event.
func follow(s JobStore, id string, n int64) error {
	var last int64
	var lastType events.Type
	for {
		evs, wake, ok := s.Events(id, last)
		if !ok {
			return fmt.Errorf("job %s unknown", id)
		}
		for _, ev := range evs {
			if ev.Seq != last+1 {
				return fmt.Errorf("job %s: seq %d after %d", id, ev.Seq, last)
			}
			last, lastType = ev.Seq, ev.Type
		}
		if wake == nil {
			break
		}
		select {
		case <-wake:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("job %s: no event after seq %d", id, last)
		}
	}
	if last != n || !lastType.Terminal() {
		return fmt.Errorf("job %s: log ended at seq %d (%s), want %d and terminal", id, last, lastType, n)
	}
	return nil
}

// fuzzRecords builds a seeded record sequence: a few jobs whose
// interleaved lifecycles cover every derived event, re-queues, retired
// frames, interrupted jobs and a transition for a job never accepted.
func fuzzRecords(seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	kinds := []api.JobKind{api.KindSolve, api.KindSimulate, api.KindScenario}
	var lives [][]Record
	for i := 1; i <= 1+rng.Intn(4); i++ {
		id := fmt.Sprintf("job-%06d", i)
		life := []Record{{Job: id, Type: events.TypeAccepted, Kind: kinds[rng.Intn(len(kinds))],
			Request: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i))}}
		if rng.Intn(4) == 0 {
			lives = append(lives, append(life, Record{Job: id, Type: events.TypeDone,
				Result: json.RawMessage(`{"hit":true}`), Cache: &api.CacheInfo{Key: "k" + id, ResultHit: true}}))
			continue
		}
		life = append(life, Record{Job: id, Type: events.TypeQueued}, Record{Job: id, Type: events.TypeStarted})
		if rng.Intn(3) == 0 {
			life = append(life, Record{Job: id, Type: "assigned"},
				Record{Job: id, Type: events.TypeQueued, Detail: "recovered after restart"},
				Record{Job: id, Type: events.TypeStarted})
		}
		for k := rng.Intn(4); k > 0; k-- {
			life = append(life, Record{Job: id, Type: events.TypeProgress,
				Progress: &tracing.ProgressSnapshot{Replications: tracing.Counts{Done: int64(k), Planned: 9}}})
		}
		switch rng.Intn(6) {
		case 0:
			life = append(life, Record{Job: id, Type: events.TypeDone, Result: json.RawMessage(`{"phi1":0.5}`)})
		case 1:
			life = append(life, Record{Job: id, Type: events.TypeDone, Result: json.RawMessage(`{"phi1":0.7}`),
				Cache: &api.CacheInfo{Key: "k" + id, WarmHits: int64(rng.Intn(5)), WarmMisses: int64(rng.Intn(3))}})
		case 2:
			life = append(life, Record{Job: id, Type: events.TypeFailed, Detail: "boom"})
		case 3:
			life = append(life, Record{Job: id, Type: events.TypeCancelled, Detail: "context canceled"})
		case 4:
			life = append(life, Record{Job: id, Type: events.TypeDrained, Detail: "draining"})
		}
		lives = append(lives, life)
	}
	recs := []Record{{Job: "job-999999", Type: events.TypeStarted}}
	for len(lives) > 0 {
		k := rng.Intn(len(lives))
		recs = append(recs, lives[k][0])
		if lives[k] = lives[k][1:]; len(lives[k]) == 0 {
			lives = append(lives[:k], lives[k+1:]...)
		}
	}
	for i := range recs {
		recs[i].Seq, recs[i].Time = int64(i+1), at(i)
	}
	return recs
}

// FuzzWALReplay damages a valid journal — one flipped byte, a truncated
// tail, or both — and replays it. Replay must never panic; it may
// refuse a file whose magic header is damaged. Otherwise the replayed
// jobs and every event log must equal a memory store fed exactly the
// records whose frames lie wholly before the first damaged byte.
func FuzzWALReplay(f *testing.F) {
	f.Add(int64(1), uint32(0), byte(0), uint32(1<<31))    // intact
	f.Add(int64(2), uint32(3), byte(0x20), uint32(1<<31)) // magic flipped
	f.Add(int64(3), uint32(9), byte(0x01), uint32(1<<31)) // first frame's length
	f.Add(int64(4), uint32(300), byte(0x80), uint32(1<<31))
	f.Add(int64(5), uint32(0), byte(0), uint32(250)) // torn tail
	f.Add(int64(6), uint32(0), byte(0), uint32(5))   // torn header
	f.Add(int64(7), uint32(0), byte(0), uint32(0))   // empty file
	f.Add(int64(8), uint32(700), byte(0xff), uint32(900))
	f.Fuzz(func(t *testing.T, seed int64, flipAt uint32, mask byte, cut uint32) {
		recs := fuzzRecords(seed)
		data := []byte(walMagic)
		var ends []int
		for _, rec := range recs {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			var head [8]byte
			binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(head[4:8], crc32.Checksum(payload, castagnoli))
			data = append(append(data, head[:]...), payload...)
			ends = append(ends, len(data))
		}
		firstBad := len(data)
		if mask != 0 && int(flipAt) < len(data) {
			data[flipAt] ^= mask
			firstBad = int(flipAt)
		}
		if int(cut) < len(data) {
			data = data[:cut]
			firstBad = min(firstBad, int(cut))
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			if firstBad < len(walMagic) {
				return
			}
			t.Fatalf("replay refused a journal damaged only at byte %d: %v", firstBad, err)
		}
		defer w.Close()

		ref := NewMemory()
		for i, rec := range recs {
			if ends[i] > firstBad {
				break
			}
			// Feed what replay decodes: the record as framed.
			var framed Record
			payload, _ := json.Marshal(rec)
			if err := json.Unmarshal(payload, &framed); err != nil {
				t.Fatal(err)
			}
			_ = ref.Append(framed)
		}
		got, want := w.List(), ref.List()
		for i := range got {
			if err := w.Resolve(&got[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed jobs differ from the intact prefix (first damaged byte %d):\n%+v\nwant\n%+v", firstBad, got, want)
		}
		for _, j := range want {
			got, _, _ := w.Events(j.Env.ID, 0)
			want, _, _ := ref.Events(j.Env.ID, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("job %s log after replay %q, want %q", j.Env.ID, eventSummary(got), eventSummary(want))
			}
		}
	})
}
