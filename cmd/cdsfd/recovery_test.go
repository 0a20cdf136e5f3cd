package main

import (
	"encoding/json"
	"net/http"
	"syscall"
	"testing"
	"time"

	"cdsf/internal/api"
)

// This file holds the multi-process acceptance test for the WAL store:
// kill -9 crash recovery with bit-identical replayed results.

// getJSON fetches a URL and decodes the body.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// pollJob fetches one job's full envelope.
func pollJob(t *testing.T, base, id string) api.Job {
	t.Helper()
	var j api.Job
	getJSON(t, base+"/v1/jobs/"+id, &j)
	return j
}

// waitJob polls until the job reaches want, failing fast on any other
// terminal state.
func waitJob(t *testing.T, base, id string, want api.JobState, timeout time.Duration) api.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j := pollJob(t, base, id)
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s within %s", id, want, timeout)
	return api.Job{}
}

// seededSimulate is a deterministic Stage-II job slow enough (~seconds)
// to be caught mid-run by a kill.
func seededSimulate(reps int) api.SimulateRequest {
	return api.SimulateRequest{
		Allocation: []api.Assignment{{Type: 0, Procs: 4}, {Type: 1, Procs: 4}, {Type: 1, Procs: 4}},
		Techniques: []string{"STATIC"},
		Reps:       reps,
		Seed:       42,
	}
}

// TestCrashRecoveryBitIdentical is the kill -9 acceptance test: a
// SIGKILL mid-job loses no accepted work, and the restarted daemon
// replays the journal and re-runs the seeded job to exactly the bytes
// an uninterrupted run produces.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	storeDir := t.TempDir()
	req := seededSimulate(30_000)

	// First life: accept the job, catch it mid-run, kill -9.
	cmdA, baseA, _ := startDaemon(t, "-store", storeDir, "-executors", "1")
	id := submitJob(t, baseA, "/v1/simulate", req)
	waitJob(t, baseA, id, api.JobRunning, 30*time.Second)
	if err := cmdA.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmdA.Wait()

	// Second life: the journal replays, the interrupted job re-enqueues
	// under its own id and runs to completion.
	_, baseB, _ := startDaemon(t, "-store", storeDir)
	recovered := waitJob(t, baseB, id, api.JobDone, 120*time.Second)

	var h api.Health
	getJSON(t, baseB+"/v1/healthz", &h)
	if h.Store == nil || h.Store.Backend != "wal" || h.Store.RecoveredJobs != 1 {
		t.Errorf("restarted healthz store block: %+v", h.Store)
	}
	var l api.JobList
	getJSON(t, baseB+"/v1/jobs", &l)
	if l.Total != 1 {
		t.Errorf("restarted daemon lists %d jobs, want the 1 accepted before the kill", l.Total)
	}

	// Uninterrupted baseline on a fresh storeless daemon: the replayed
	// result must match byte for byte.
	_, baseC, _ := startDaemon(t)
	refID := submitJob(t, baseC, "/v1/simulate", req)
	ref := waitJob(t, baseC, refID, api.JobDone, 120*time.Second)
	if string(recovered.Result) != string(ref.Result) {
		t.Errorf("recovered result differs from uninterrupted run (%d vs %d bytes)",
			len(recovered.Result), len(ref.Result))
	}
}
