// Command e2ebench is the repository's end-to-end benchmark. It launches
// a real cdsfd built from the checkout, drives it over the v1 HTTP API
// with one seeded workload from two closed-loop clients, checks every
// result, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) with a JSON summary as the last
// line of standard output.
//
// Run it through run.sh, which builds cdsfd and this command first:
//
//	bash e2ebench/run.sh --workload paper-service --seed 1 --seconds 50 --trace 0
//
// Workloads: paper-service, synth-stage1, paper-scenario, dag-service.
// BENCHMARK.json gates changes on dag-service and paper-scenario; the
// other two run the same way, but their run-to-run spread on a shared
// two-CPU host was wider than the bounds allow. The exit status is nonzero only when the benchmark itself cannot run
// (cdsfd does not build or start); failed jobs and wrong results count
// towards error_rate and make "correct" false.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-service, synth-stage1, paper-scenario or dag-service")
	seed := fs.Uint64("seed", 1, "workload seed; the request stream is a pure function of it")
	seconds := fs.Int("seconds", 50, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run: per-layer metrics instead of end-to-end ones")
	bin := fs.String("cdsfd", "", "path of the cdsfd binary under test")
	work := fs.String("work", ".bench_build", "directory for WAL dirs, span files and result files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -cdsfd is required, -seconds must be positive and -trace 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, bin: *bin, work: abs}
	sum, err := benchmark(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
