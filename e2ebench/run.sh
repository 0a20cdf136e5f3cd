#!/usr/bin/env bash
# Builds cdsfd and the e2ebench command from the checkout in the current
# directory, then runs the end-to-end benchmark with the given flags:
#
#   bash e2ebench/run.sh --workload paper-service --seed 1 --seconds 50 --trace 0
#
# Everything the build and the runs write stays under .bench_build in
# the current directory: the Go build cache, the binaries, the WAL dirs
# of the launched services, and the result and span files (results/).
set -euo pipefail

root=$(pwd)
# Without the program's source there is nothing to build or measure.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cdsfd" ]; then
	echo "e2ebench: run from the root of a checkout that holds go.mod and cmd/cdsfd" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
# The go command's caches, temp files, module path and user config
# all live under .bench_build.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

# Rebuild when a Go source or module file is newer than the last build.
stamp="$out/bin/.built"
if [ ! -f "$stamp" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$stamp" -print -quit)" ]; then
	# With telemetry on, the go command starts a sidecar process that
	# it does not wait for and that can outlive this script.
	go telemetry off
	go build -o "$out/bin/cdsfd" ./cmd/cdsfd
	(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
	touch "$stamp"
fi

exec "$out/bin/e2ebench" -cdsfd "$out/bin/cdsfd" -work "$out" "$@"
