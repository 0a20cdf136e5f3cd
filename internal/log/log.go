// Package log is the zero-dependency structured logging layer of the
// CDSF reproduction, in the house style of internal/metrics: leveled
// JSON-lines output with deterministic field ordering, a nil-receiver
// no-op fast path, and an injectable clock so seeded log output is
// bit-identical run to run.
//
// Every record is one JSON object on one line. Fields are emitted in a
// fixed order — ts, level, msg, then the logger's bound fields (in
// binding order), then the call's fields (in argument order) — by a
// hand-rolled encoder, because encoding/json would sort map keys and
// lose the ordering contract. With a fixed clock, two identical call
// sequences produce byte-identical output.
//
//	lg := log.New(w, log.Options{Level: log.LevelInfo})
//	jl := lg.With(log.F("job", id))      // child logger, bound fields
//	jl.Info("job started", log.F("kind", "solve"))
//
// A nil *Logger is a no-op on every method (including With, which
// returns nil), so instrumented code holds plain pointers and pays one
// predictable nil check when logging is disabled — the same disabled
// path as a nil metrics.Registry. Logging never draws from the
// simulation rng streams and writes only to its own sink, so seeded
// result documents and CLI stdout are byte-identical with logging on
// or off.
//
// Only the standard library is used.
package log

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level is a log severity. The zero value is LevelInfo, so a zero
// Options logs info and above.
type Level int32

const (
	// LevelDebug: per-request and per-tick detail.
	LevelDebug Level = iota - 1
	// LevelInfo: lifecycle transitions worth keeping.
	LevelInfo
	// LevelWarn: degraded but continuing.
	LevelWarn
	// LevelError: a run or request failed.
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel parses a level name as the CLIs' -log-level flag accepts
// it: debug, info, warn (or warning), error.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("log: unknown level %q (have debug, info, warn, error)", s)
}

// Field is one key/value pair of a record. Construct fields with F.
type Field struct {
	Key   string
	Value any
}

// F builds a Field; it exists so call sites read as
// log.F("job", id) rather than a struct literal.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Options configures a Logger.
type Options struct {
	// Level is the minimum severity emitted; records below it are
	// dropped before any encoding work. The zero value is LevelInfo.
	Level Level
	// Clock supplies record timestamps; nil means time.Now. Tests and
	// determinism pins inject a fixed clock so output is bit-identical.
	Clock func() time.Time
}

// Logger emits JSON-lines records to a shared sink. Child loggers made
// with With share the parent's sink, level, and clock; writes are
// serialized by one mutex per sink, so one line is never interleaved
// with another. The zero value is not useful — construct with New.
type Logger struct {
	core   *core
	fields []Field // bound fields, emitted after ts/level/msg
}

// core is the sink state shared by a logger and all its children.
type core struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	clock func() time.Time
}

// New returns a logger writing JSON lines to w. A nil w returns a nil
// logger (the no-op path), so callers can pass an optional sink
// straight through.
func New(w io.Writer, opts Options) *Logger {
	if w == nil {
		return nil
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Logger{core: &core{w: w, level: opts.Level, clock: clock}}
}

// With returns a child logger whose records carry the given fields
// after the parent's bound fields. A nil receiver returns nil, keeping
// the whole chain a no-op.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil {
		return nil
	}
	if len(fields) == 0 {
		return l
	}
	bound := make([]Field, 0, len(l.fields)+len(fields))
	bound = append(bound, l.fields...)
	bound = append(bound, fields...)
	return &Logger{core: l.core, fields: bound}
}

// Enabled reports whether records at the given level would be emitted
// (false on a nil receiver), so callers can skip expensive field
// construction.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.core.level
}

// Debug emits a debug record. No-op on a nil receiver.
func (l *Logger) Debug(msg string, fields ...Field) { l.emit(LevelDebug, msg, fields) }

// Info emits an info record. No-op on a nil receiver.
func (l *Logger) Info(msg string, fields ...Field) { l.emit(LevelInfo, msg, fields) }

// Warn emits a warn record. No-op on a nil receiver.
func (l *Logger) Warn(msg string, fields ...Field) { l.emit(LevelWarn, msg, fields) }

// Error emits an error record. No-op on a nil receiver.
func (l *Logger) Error(msg string, fields ...Field) { l.emit(LevelError, msg, fields) }

// emit encodes and writes one record: one buffered line, one Write
// call, under the sink mutex.
func (l *Logger) emit(level Level, msg string, fields []Field) {
	if !l.Enabled(level) {
		return
	}
	var buf bytes.Buffer
	buf.WriteString(`{"ts":`)
	appendValue(&buf, l.core.clock().UTC().Format(time.RFC3339Nano))
	buf.WriteString(`,"level":`)
	appendValue(&buf, level.String())
	buf.WriteString(`,"msg":`)
	appendValue(&buf, msg)
	for _, f := range l.fields {
		appendField(&buf, f)
	}
	for _, f := range fields {
		appendField(&buf, f)
	}
	buf.WriteString("}\n")

	l.core.mu.Lock()
	defer l.core.mu.Unlock()
	_, _ = l.core.w.Write(buf.Bytes())
}

// appendField writes `,"key":value` with the key JSON-escaped.
func appendField(buf *bytes.Buffer, f Field) {
	buf.WriteByte(',')
	appendValue(buf, f.Key)
	buf.WriteByte(':')
	appendValue(buf, f.Value)
}

// appendValue writes one JSON value. Values that fail to marshal
// (channels, cyclic structures) degrade to their quoted %v rendering
// instead of poisoning the whole line.
func appendValue(buf *bytes.Buffer, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	// json.Marshal never emits newlines, so the one-record-per-line
	// invariant holds without scanning.
	buf.Write(raw)
}
