#!/bin/sh
# CI entry point, split into the stages the GitHub workflow runs as separate
# jobs. Usage:
#
#     ./ci.sh [stage]
#
# Stages:
#
#   lint   vet, gofmt, staticcheck (when installed)
#   test   tier-1 build + full test suite
#   race   race detector over the goroutine-spawning packages + chaos re-run
#   fuzz   short fuzz smoke over the solver parity fuzzers
#   smoke  server smoke: boot bpmaxd, replay the committed trace with
#          bpmaxload -check, SIGTERM, assert a clean drain
#   bench  benchmark smoke + regression gate against the committed baseline
#   all    every stage in order (default; what a minimal container runs)
#
# Regenerated artifacts (bench JSON, serving replay JSON) are written under
# results/generated/ — never the repo root — and are gitignored.
set -eu

STAGE="${1:-all}"
ARTIFACTS="results/generated"

run_lint() (
    set -x
    go vet ./...
    test -z "$(gofmt -l . cmd internal)" || { gofmt -l . cmd internal; exit 1; }
    # Structured logging stays at the process edge (cmd/): the solver, the
    # pipeline, and the observability plumbing itself must never log — they
    # report through return values, metrics, and traces. A slog import in
    # any of these packages is a layering regression.
    if grep -rn '"log/slog"' internal/bpmax internal/nussinov internal/fourrussians \
        internal/pipeline internal/metrics internal/trace internal/workload ./*.go; then
        echo "lint: log/slog imported below the cmd/ layer (log at the edge, trace in the core)" >&2
        exit 1
    fi
    # staticcheck runs only where the pinned tool is installed (the GitHub
    # workflow installs it; minimal containers skip).
    if command -v staticcheck >/dev/null 2>&1; then
        staticcheck ./...
    fi
)

run_test() (
    set -x
    go build ./...
    go test ./...
)

run_race() (
    set -x
    go test -race ./internal/bpmax/ ./internal/nussinov/ ./internal/fourrussians/ \
        ./internal/pipeline/ ./internal/trace/ . ./cmd/bpmax/ ./cmd/bpmaxd/
    # Chaos smoke — the seeded fault schedules, retry/breaker policies and
    # session-drain contract under the race detector (see chaos_test.go and
    # docs/ROBUSTNESS.md). The package -race run above already covers these;
    # this step re-runs them by name so a chaos failure is identified as such.
    go test -race -run 'TestChaos|TestRetry|TestBreaker|TestSessionShutdownDrains|TestSessionClosed' -count=1 .
)

run_fuzz() (
    set -x
    # Fuzz smoke over the pooled/context/cached parity fuzzers — the paths
    # the pipeline's reuse layers ride on — the semiring-generic fuzzer that
    # pins the generic max-plus fill bit-identical to the pre-refactor
    # reference, the partition domain fuzzer that pins the scaled
    # probability-domain fill to the log-sum-exp fill (and its fallback bit
    # for bit), the Four-Russians substrate bit-identity fuzzer that lets the
    # fast path share cache entries with the classic fill, and the public
    # fold and FASTA round-trip fuzzers.
    go test -run '^$' -fuzz FuzzPooledParity -fuzztime 10s .
    go test -run '^$' -fuzz FuzzSemiringMaxPlusParity -fuzztime 10s ./internal/bpmax/
    go test -run '^$' -fuzz FuzzPartitionDomainParity -fuzztime 10s ./internal/bpmax/
    go test -run '^$' -fuzz FuzzFoldContextParity -fuzztime 10s .
    go test -run '^$' -fuzz FuzzCachedFoldParity -fuzztime 10s .
    go test -run '^$' -fuzz FuzzFourRussiansParity -fuzztime 10s ./internal/fourrussians/
    go test -run '^$' -fuzz 'FuzzFold$' -fuzztime 10s .
    go test -run '^$' -fuzz FuzzFastaRoundTrip -fuzztime 10s .
)

# Server smoke: boot bpmaxd on a random port, replay the committed trace
# open-loop, then SIGTERM. bpmaxload -check fails on any 5xx, transport
# error, client/server ledger mismatch, or shed rate above 20%; its
# -slowest-trace fetch fails if /debug/requests is missing or empty, so the
# tracing spine is asserted end-to-end; bpmaxd itself exits nonzero if the
# drain drops an in-flight request, and dumps its trace ring as Chrome
# trace-event JSON on the way out. Both trace files must parse.
run_smoke() {
    mkdir -p "$ARTIFACTS"
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_DIR"' EXIT
    set -x
    go build -o "$SMOKE_DIR/bpmaxd" ./cmd/bpmaxd
    go build -o "$SMOKE_DIR/bpmaxload" ./cmd/bpmaxload
    "$SMOKE_DIR/bpmaxd" -addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/addr" \
        -cache 64MB -admit 8 -admit-queue 64 -log-format json \
        -trace-out "$ARTIFACTS/trace-drain.json" 2>"$SMOKE_DIR/bpmaxd.log" &
    SRV=$!
    i=0
    while [ ! -s "$SMOKE_DIR/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "bpmaxd never wrote its address" >&2
            cat "$SMOKE_DIR/bpmaxd.log" >&2
            kill "$SRV" 2>/dev/null || true
            exit 1
        fi
        sleep 0.05
    done
    "$SMOKE_DIR/bpmaxload" -addr "$(cat "$SMOKE_DIR/addr")" \
        -trace testdata/traces/ci-smoke.jsonl -check -max-shed 0.2 \
        -slowest-trace "$ARTIFACTS/trace-slowest.json" \
        -json "$ARTIFACTS/BENCH_serving.json"
    kill -TERM "$SRV"
    wait "$SRV"
    cat "$SMOKE_DIR/bpmaxd.log"
    # Both Chrome trace-event exports (client-fetched slowest, server drain
    # dump) must be loadable JSON with a non-empty traceEvents array.
    cat > "$SMOKE_DIR/validate_chrome.go" <<'EOF'
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	for _, path := range os.Args[1:] {
		blob, err := os.ReadFile(path)
		if err == nil {
			var f struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if e := json.Unmarshal(blob, &f); e != nil {
				err = e
			} else if len(f.TraceEvents) == 0 {
				err = fmt.Errorf("no traceEvents")
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chrome trace %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}
EOF
    go run "$SMOKE_DIR/validate_chrome.go" \
        "$ARTIFACTS/trace-slowest.json" "$ARTIFACTS/trace-drain.json"
    # Gate the replay's latency rows against the committed serving baseline.
    # The threshold is deliberately loose (5x): end-to-end latency on shared
    # CI machines is noisy, and the gate is for order-of-magnitude
    # regressions — the microbenchmark gate in run_bench holds the tight
    # line. Refresh with `make serving-baseline` after intentional changes
    # (which skips this gate: a refresh must not be vetoed by the baseline
    # it is replacing).
    if [ "${REFRESH_SERVING_BASELINE:-0}" != "1" ]; then
        go run ./cmd/benchgate -baseline results/BENCH_serving_baseline.json \
            -current "$ARTIFACTS/BENCH_serving.json" -threshold 400
    fi
}

run_bench() (
    set -x
    mkdir -p "$ARTIFACTS"
    # One-iteration benchmark smoke: catches benchmarks that no longer
    # compile or crash.
    go test -run '^$' -bench . -benchtime 1x ./...
    # Benchmark-regression gate. First prove the gate itself trips on a
    # synthetic 20% regression, then regenerate the steady-state artifact
    # and compare it against the committed baseline (refresh with `make
    # bench-baseline` after intentional performance changes).
    go run ./cmd/benchgate -baseline results/BENCH_baseline.json -selftest
    go run ./cmd/bpmaxbench -exp ext-engine,ext-metrics,ext-cache,ext-chaos,ext-substrate,ext-partition \
        -repeats 3 -json "$ARTIFACTS/BENCH_engine.json"
    go run ./cmd/benchgate -baseline results/BENCH_baseline.json -current "$ARTIFACTS/BENCH_engine.json"
)

case "$STAGE" in
lint) run_lint ;;
test) run_test ;;
race) run_race ;;
fuzz) run_fuzz ;;
smoke) run_smoke ;;
bench) run_bench ;;
all)
    run_lint
    run_test
    run_race
    run_fuzz
    run_smoke
    run_bench
    ;;
*)
    echo "ci.sh: unknown stage '$STAGE' (lint|test|race|fuzz|smoke|bench|all)" >&2
    exit 2
    ;;
esac
