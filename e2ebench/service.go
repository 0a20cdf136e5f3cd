package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cdsf/internal/api"
)

// This file drives the system under test: a cdsfd process built from
// the checkout, launched exactly as an operator would (fresh WAL dir,
// cache on, metrics on) and reached only through its v1 HTTP API and
// /proc.

// service is one running cdsfd process.
type service struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	stderr bytes.Buffer // guarded by mu
	mu     sync.Mutex
	exited chan struct{}
}

var readyRE = regexp.MustCompile(`serving the \S+ job API on (http://[^/\s]+)/`)

// startService launches cdsfd on an empty WAL dir under dir and returns
// once /v1/healthz first answers "ok". No -debug-addr (it turns the
// tracer on) and no cluster flags; -metrics is required because without
// it the cache and WAL get no registry and their counters vanish from
// /metrics.
func startService(ctx context.Context, bin, dir string) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "wal"),
		"-cache", "on", "-metrics", filepath.Join(dir, "metrics.json"))
	// The service must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cdsfd: %w", err)
	}
	s := &service{cmd: cmd, dir: dir, exited: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
			if m := readyRE.FindStringSubmatch(line); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
		// Wait only after the pipe is drained (os/exec contract).
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.base = <-ready:
	case <-s.exited:
		return nil, fmt.Errorf("cdsfd exited before serving:\n%s", s.log())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("cdsfd printed no readiness line in 60s:\n%s", s.log())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		var h api.Health
		if err := getJSON(ctx, hc, s.base+"/v1/healthz", &h); err == nil && h.Status == "ok" {
			return s, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("cdsfd never reported healthy:\n%s", s.log())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *service) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

func (s *service) pid() int { return s.cmd.Process.Pid }

// stop drains cdsfd with SIGTERM (it exits nonzero by design after a
// signal) and waits for the process to end, killing it after 20s.
func (s *service) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters is a scrape of the service's own counters: /metrics (JSON)
// plus the healthz store block, which is reported even without a
// metrics registry.
type counters struct {
	metrics  map[string]int64
	store    api.HealthStore
	hasStore bool
}

func scrape(ctx context.Context, base string) (counters, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	c := counters{metrics: map[string]int64{}}
	if err := getJSON(ctx, hc, base+"/metrics", &snap); err != nil {
		return c, err
	}
	c.metrics = snap.Counters
	var h api.Health
	if err := getJSON(ctx, hc, base+"/v1/healthz", &h); err != nil {
		return c, err
	}
	if h.Store != nil {
		c.store, c.hasStore = *h.Store, true
	}
	return c, nil
}

// delta returns after-before for one counter. A counter absent from
// the after scrape is missing (ok=false): the program stopped exporting
// it under that name, which is reported as such and never as zero.
func delta(before, after counters, name string) (float64, bool) {
	a, ok := after.metrics[name]
	if !ok {
		return 0, false
	}
	return float64(a - before.metrics[name]), true
}

// cpuTicks reads a process's user+system CPU time from /proc/<pid>/stat
// in clock ticks (USER_HZ, fixed at 100 by the Linux ABI).
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

const msPerTick = 10

// peakRSSKiB reads VmHWM from /proc/<pid>/status.
func peakRSSKiB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc     *http.Client
	base   string
	follow bool
}

func newClient(base string, follow bool) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, follow: follow}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what a client observed for one request.
type outcome struct {
	rq       *request
	sent     time.Time // POST about to be written
	admitted time.Time // 202 read
	done     time.Time // terminal envelope read
	env      api.Job   // terminal envelope (Result cleared; see result)
	result   []byte    // the result document, compacted
	requests int       // HTTP requests this job took
	err      error     // transport, protocol or job failure
	problem  string    // correctness-check failure
	// spans are the job's client spans in a traced run: job, with
	// children server.admit (POST to 202) and server.wait (202 to the
	// terminal envelope).
	spans []span
}

func (o *outcome) recordSpans() {
	job := jobID(o.rq)
	o.spans = []span{
		{ID: 0, Parent: -1, Job: job, Name: "job", Start: o.sent.UnixNano(), End: o.done.UnixNano()},
		{ID: 1, Parent: 0, Job: job, Name: "server.admit", Start: o.sent.UnixNano(), End: o.admitted.UnixNano()},
		{ID: 2, Parent: 0, Job: job, Name: "server.wait", Start: o.admitted.UnixNano(), End: o.done.UnixNano()},
	}
}

func (c *client) do(ctx context.Context, rq *request) *outcome {
	o := &outcome{rq: rq, sent: time.Now()}
	o.err = c.run(ctx, o)
	o.done = time.Now()
	if o.err == nil && o.env.State != api.JobDone {
		o.err = fmt.Errorf("job %s ended %s: %s", o.env.ID, o.env.State, o.env.Error)
	}
	return o
}

func (c *client) run(ctx context.Context, o *outcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.rq.route, bytes.NewReader(o.rq.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	o.requests++
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.admitted = time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s: status %d: %s", o.rq.route, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := o.setEnvelope(body); err != nil {
		return err
	}
	if o.env.State.Terminal() {
		return nil
	}
	id := o.env.ID
	if c.follow {
		// The stream ends at the journal's terminal event.
		o.requests++
		if err := c.drain(ctx, c.base+"/v1/jobs/"+id+"/events?follow=1"); err != nil {
			return err
		}
		o.requests++
		body, err := c.get(ctx, c.base+"/v1/jobs/"+id)
		if err != nil {
			return err
		}
		if err := o.setEnvelope(body); err != nil {
			return err
		}
		if !o.env.State.Terminal() {
			return fmt.Errorf("job %s still %s after its event stream ended", id, o.env.State)
		}
		return nil
	}
	for {
		o.requests++
		body, err := c.get(ctx, c.base+"/v1/jobs/"+id)
		if err != nil {
			return err
		}
		if err := o.setEnvelope(body); err != nil {
			return err
		}
		// Polls go back to back, paced by their own round trips: a
		// sub-millisecond sleep would be rounded up to the runtime's
		// millisecond timer granularity whenever the process idles,
		// making latency bimodal.
		if o.env.State.Terminal() {
			return nil
		}
	}
}

// setEnvelope decodes a job envelope, keeping the result document in
// compact form: the service indents responses, and compacting restores
// the exact bytes it marshaled, which the replay and repeat checks
// compare.
func (o *outcome) setEnvelope(body []byte) error {
	var env api.Job
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decoding envelope: %w", err)
	}
	if len(env.Result) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, env.Result); err != nil {
			return fmt.Errorf("compacting result: %w", err)
		}
		o.result = buf.Bytes()
		env.Result = nil
	}
	o.env = env
	return nil
}

func (c *client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) drain(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
