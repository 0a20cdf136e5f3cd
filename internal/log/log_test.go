package log

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a clock stepping one second per call from a fixed
// origin, so emitted timestamps are deterministic.
func fixedClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Second)
		return t
	}
}

func TestDeterministicOutput(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		lg := New(&buf, Options{Level: LevelDebug, Clock: fixedClock()})
		child := lg.With(F("job", "job-000001"), F("kind", "solve"))
		child.Info("job accepted", F("queue_depth", 3))
		child.Debug("tick", F("done", 1), F("planned", 9))
		lg.Warn("queue full", F("retry_after", 2))
		lg.Error("job failed", F("error", "boom"))
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatalf("two identical call sequences differ:\n%s\n---\n%s", a, b)
	}
	want := `{"ts":"2026-01-02T03:04:06Z","level":"info","msg":"job accepted","job":"job-000001","kind":"solve","queue_depth":3}
{"ts":"2026-01-02T03:04:07Z","level":"debug","msg":"tick","job":"job-000001","kind":"solve","done":1,"planned":9}
{"ts":"2026-01-02T03:04:08Z","level":"warn","msg":"queue full","retry_after":2}
{"ts":"2026-01-02T03:04:09Z","level":"error","msg":"job failed","error":"boom"}
`
	if a != want {
		t.Errorf("output:\n%s\nwant:\n%s", a, want)
	}
}

func TestEveryLineIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	lg := New(&buf, Options{Level: LevelDebug})
	lg.Info(`msg with "quotes" and
newline`, F(`key"with"quotes`, "v"), F("num", 1.5), F("bool", true), F("null", nil))
	lg.Info("unmarshalable", F("ch", make(chan int)))
	for i, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %d not valid JSON: %v\n%s", i, err, line)
		}
	}
	// The channel field degraded to its %v string instead of being lost.
	if !strings.Contains(buf.String(), `"ch":"0x`) {
		t.Errorf("unmarshalable value not degraded to a string: %s", buf.String())
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	lg := New(&buf, Options{Level: LevelWarn})
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w")
	lg.Error("e")
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Errorf("got %d lines at level warn, want 2:\n%s", lines, buf.String())
	}
	if lg.Enabled(LevelInfo) || !lg.Enabled(LevelWarn) {
		t.Error("Enabled disagrees with the configured level")
	}
}

func TestNilLoggerIsNoOp(t *testing.T) {
	var lg *Logger
	child := lg.With(F("k", "v")) // must not panic, stays nil
	if child != nil {
		t.Error("With on nil logger returned non-nil")
	}
	child.Debug("d")
	child.Info("i")
	child.Warn("w")
	child.Error("e")
	if lg.Enabled(LevelError) {
		t.Error("nil logger claims to be enabled")
	}
	if New(nil, Options{}) != nil {
		t.Error("New(nil, ...) returned a logger with no sink")
	}
}

func TestWithDoesNotMutateParent(t *testing.T) {
	var buf bytes.Buffer
	lg := New(&buf, Options{}).With(F("a", 1))
	c1 := lg.With(F("b", 2))
	c2 := lg.With(F("c", 3))
	c1.Info("one")
	c2.Info("two")
	lg.Info("parent")
	out := buf.String()
	if !strings.Contains(out, `"msg":"one","a":1,"b":2}`) ||
		!strings.Contains(out, `"msg":"two","a":1,"c":3}`) {
		t.Errorf("sibling children shared bound fields:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"parent","a":1}`) {
		t.Errorf("parent gained a child's fields:\n%s", out)
	}
	if lg.With() != lg {
		t.Error("With() with no fields should return the receiver")
	}
}

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(name)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
	if s := Level(9).String(); s != "level(9)" {
		t.Errorf("out-of-range level string %q", s)
	}
}

func TestConcurrentEmitKeepsLinesWhole(t *testing.T) {
	var buf bytes.Buffer
	lg := New(&buf, Options{Level: LevelDebug})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := lg.With(F("g", g))
			for i := 0; i < 50; i++ {
				child.Info("line", F("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50)
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved line: %q", line)
		}
	}
}
