#!/usr/bin/env bash
# Builds bpmaxd and the benchmark program from this checkout, then runs the
# program with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload screen --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binaries, Go build cache, span dumps) goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bpmaxd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/bpmaxd and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/bpmaxd" ./cmd/bpmaxd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bpmaxd "$out/bin/bpmaxd" --workdir "$out/perfbench" "$@"
