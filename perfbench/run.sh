#!/usr/bin/env bash
# Runs the repository benchmark once, from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the plumserve daemon from the tree under test, the harness,
# and the traced replay (untimed; the Go build cache makes repeats
# cheap), then runs the harness.  Builds, caches and scratch files stay
# under .bench_build/.  A traced replay that does not compile leaves the
# end-to-end harness working; -trace 1 then flags its numbers invalid.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/plumserve" ./cmd/plumserve >&2
(cd perfbench && go build -o "$out/bin/harness" ./harness) >&2
rm -f "$out/bin/trace"
(cd perfbench && go build -o "$out/bin/trace" ./trace) >&2 ||
	echo "run.sh: the traced replay does not build" >&2

exec "$out/bin/harness" "$@"
