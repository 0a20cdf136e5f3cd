package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"cdsf/internal/events"
	"cdsf/internal/metrics"
)

// This file implements the WAL store: an append-only journal of
// lifecycle Records framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// after an 8-byte magic header. The payload is the Record's JSON.
//
// Durability contract: Append does not return for accepted and
// terminal records (done, failed, cancelled, drained) until the frame
// is fsynced — so a 202 response means the job survives kill -9, and
// a done response means its result bytes do. Queued, started, and
// progress records are written without waiting; losing
// the tail of those to a crash only makes replay re-run slightly more
// work, never lose a job. Fsyncs are group-committed: while one fsync
// is in flight, every appender that arrives queues behind it and is
// released by the next single fsync, so the fsync rate is bounded by
// disk latency, not by the append rate.
//
// Visibility follows durability: a record is applied to the table (and
// so shows in Get, List and Events) only after its frame is written,
// and an accepted or terminal record only after its fsync returns. No
// reader, the SSE follower included, sees a terminal state the disk
// does not hold yet.
//
// Results stay on disk: a done record's result document is not kept in
// the materialized table once its frame is in the journal. The table
// keeps the frame's offset and length, and Get and Resolve read the
// frame back (ReadAt), check it against its CRC-32C as replay does,
// and decode the result from it, in encoding/json's compact form, which
// is the form the service marshals results in. List reads nothing, so
// a listing pays only for the results of the page it returns. A failed
// read or check is returned as an error. A done record whose frame
// could not be written keeps its result in memory, so a degraded disk
// still serves the job as done.
//
// Replay: on open the journal is read back frame by frame and applied
// through the same state machine live appends use. A torn tail — a
// partial or CRC-mismatched frame from the crash — ends the replay
// and is truncated away so appends continue from the last good frame.
// Jobs that are non-terminal after replay were interrupted; the
// server re-enqueues them (Interrupted) and, because seeded jobs are
// deterministic, the re-run produces bit-identical result bytes.

// walMagic identifies a journal file and its format version.
const walMagic = "CDSFWAL1"

// maxWalRecord bounds a frame's declared payload length; anything
// larger is treated as corruption (requests are capped at 16 MiB by
// the HTTP layer, results are comparable).
const maxWalRecord = 64 << 20

// castagnoli is the CRC-32C table used for frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Metrics receives the store.* counters (appends, fsyncs,
	// replayed records, recovered jobs); nil disables them.
	Metrics *metrics.Registry
}

// WAL is the durable job store: the in-memory table plus the
// append-only journal that rebuilds it after a crash.
type WAL struct {
	t    *table
	opts WALOptions

	mu   sync.Mutex // guards file writes and size
	f    journalFile
	size int64

	waitMu  sync.Mutex
	waiters []chan error
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}

	fsyncs      int64
	interrupted []Job
	replay      Stats // replay-time numbers, frozen at open
}

// journalFile is what a WAL uses of its journal once it is replayed:
// positioned reads and writes, sync and close. Frames are written at
// the journal's size with WriteAt, never at the file cursor, so the
// offset a done record keeps is where its frame landed, and the bytes
// of a short write are overwritten by the next append.
type journalFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// OpenWAL opens (creating if needed) the journal under dir and
// replays it. The returned store's Interrupted lists the jobs that
// were queued or running at the crash, ready to re-enqueue.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "jobs.wal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	// Single-writer exclusion: a second process opening the same
	// journal would replay it concurrently and its torn-tail
	// truncation could destroy frames the live writer is appending.
	// The lock dies with the file descriptor, so kill -9 releases it.
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s is locked by another process: %w", path, err)
	}
	w := &WAL{
		t:    newTable(),
		opts: opts,
		f:    f,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := w.replayFile(f); err != nil {
		f.Close()
		return nil, err
	}
	go w.syncer()
	return w, nil
}

// replayFile reads the journal back, applies every intact frame, and
// truncates the torn tail (if any) so appends continue cleanly.
func (w *WAL) replayFile(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			return fmt.Errorf("store: writing journal header: %w", err)
		}
		w.size = int64(len(walMagic))
		return nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != walMagic {
		return fmt.Errorf("store: %s is not a cdsf job journal", f.Name())
	}
	good := int64(len(walMagic))
	var maxSeq int64
	var head [8]byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			break // clean EOF or torn frame header
		}
		length := binary.LittleEndian.Uint32(head[0:4])
		sum := binary.LittleEndian.Uint32(head[4:8])
		if length == 0 || length > maxWalRecord {
			break // corrupt length: stop at the last good frame
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		if rec.Type == events.TypeDone && len(rec.Result) > 0 {
			rec.Result, rec.at = nil, frameRef{off: good, n: length}
		}
		w.t.apply(rec)
		if rec.Type == events.TypeAccepted {
			w.t.bumpSeq(rec.Job)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		good += 8 + int64(length)
		w.replay.ReplayedRecords++
	}
	if good < size {
		w.replay.TruncatedBytes = size - good
		if err := f.Truncate(good); err != nil {
			return fmt.Errorf("store: truncating torn journal tail: %w", err)
		}
	}
	w.size = good
	w.t.mu.Lock()
	w.t.appended = maxSeq
	w.t.mu.Unlock()
	w.interrupted = w.t.nonTerminal()
	w.replay.ReplayedJobs = int64(w.t.len())
	w.replay.RecoveredJobs = int64(len(w.interrupted))
	w.opts.Metrics.Counter("store.replayed_records").Add(w.replay.ReplayedRecords)
	w.opts.Metrics.Counter("store.recovered_jobs").Add(w.replay.RecoveredJobs)
	return nil
}

// durable reports whether a record type must be fsynced before Append
// returns.
func durable(t events.Type) bool {
	switch t {
	case events.TypeAccepted, events.TypeDone, events.TypeFailed,
		events.TypeCancelled, events.TypeDrained:
		return true
	}
	return false
}

// Backend implements JobStore.
func (w *WAL) Backend() string { return "wal" }

// NextID implements JobStore; ids continue past the highest replayed
// one.
func (w *WAL) NextID() string { return w.t.nextID() }

// Append implements JobStore: frame, write, for durable record types
// wait for the group-committed fsync, and only then apply. The record
// is applied whatever the outcome, so job state still advances when
// the disk fails; the error is returned. A done record whose frame was
// written is applied with its result left in the journal.
func (w *WAL) Append(rec Record) error {
	rec = w.t.stamp(rec)
	defer func() { w.t.apply(rec) }()
	w.opts.Metrics.Counter("store.appends").Inc()

	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)

	w.mu.Lock()
	off := w.size
	_, werr := w.f.WriteAt(frame, off)
	if werr == nil {
		w.size += int64(len(frame))
	}
	w.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("store: appending record: %w", werr)
	}
	if rec.Type == events.TypeDone && len(rec.Result) > 0 {
		rec.Result, rec.at = nil, frameRef{off: off, n: uint32(len(payload))}
	}
	if !durable(rec.Type) {
		return nil
	}

	ch := make(chan error, 1)
	w.waitMu.Lock()
	w.waiters = append(w.waiters, ch)
	w.waitMu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return <-ch
}

// syncer is the group-commit loop: it fsyncs once per batch of
// waiters, so concurrent durable appends share one disk flush.
func (w *WAL) syncer() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			w.release()
			return
		case <-w.kick:
			w.release()
		}
	}
}

// release fsyncs and wakes everyone who was waiting before the fsync
// started.
func (w *WAL) release() {
	w.waitMu.Lock()
	ws := w.waiters
	w.waiters = nil
	w.waitMu.Unlock()
	if len(ws) == 0 {
		return
	}
	err := w.f.Sync()
	w.mu.Lock()
	w.fsyncs++
	w.mu.Unlock()
	w.opts.Metrics.Counter("store.fsyncs").Inc()
	for _, c := range ws {
		c <- err
	}
}

// Get implements JobStore: a done job's result is read back from its
// journal frame.
func (w *WAL) Get(id string) (Job, bool, error) {
	j, ok := w.t.get(id)
	if !ok {
		return j, false, nil
	}
	err := w.Resolve(&j)
	return j, true, err
}

// Resolve implements JobStore: it reads a job's result document back
// from the journal frame its done record was written to, checking the
// frame's length and CRC-32C as replay does.
func (w *WAL) Resolve(j *Job) error {
	ref := j.result
	if ref.n == 0 {
		return nil
	}
	j.result = frameRef{}
	frame := make([]byte, 8+int(ref.n))
	if _, err := w.f.ReadAt(frame, ref.off); err != nil {
		return fmt.Errorf("store: reading the result of %s: %w", j.Env.ID, err)
	}
	payload := frame[8:]
	if binary.LittleEndian.Uint32(frame[0:4]) != ref.n ||
		crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return fmt.Errorf("store: the journal frame holding the result of %s fails its checksum", j.Env.ID)
	}
	var rec struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(payload, &rec); err != nil || len(rec.Result) == 0 {
		return fmt.Errorf("store: the journal frame holding the result of %s has no result", j.Env.ID)
	}
	j.Env.Result = rec.Result
	return nil
}

// Events implements JobStore; replay rebuilds every job's log, so it
// survives a restart.
func (w *WAL) Events(id string, after int64) ([]events.Event, <-chan struct{}, bool) {
	return w.t.since(id, after)
}

// List implements JobStore; done results stay in the journal until
// Resolve.
func (w *WAL) List() []Job { return w.t.list() }

// Interrupted implements JobStore: the jobs that were queued or
// running when the journal was last closed (by crash or otherwise).
func (w *WAL) Interrupted() []Job {
	return append([]Job(nil), w.interrupted...)
}

// Stats implements JobStore.
func (w *WAL) Stats() Stats {
	s := w.replay
	s.Backend = "wal"
	s.Jobs = w.t.len()
	w.t.mu.Lock()
	s.Records = w.t.appended - w.replay.ReplayedRecords
	w.t.mu.Unlock()
	w.mu.Lock()
	s.WALBytes = w.size
	s.Fsyncs = w.fsyncs
	w.mu.Unlock()
	return s
}

// Close implements JobStore: it stops the syncer, flushes, and closes
// the journal file. Idempotent Close is not required by the server
// (it closes once, at drain).
func (w *WAL) Close() error {
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	serr := w.f.Sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
