# Tier-1 gate (what CI must keep green) plus the deeper checks.
#
# `make ci` runs the same stages the GitHub workflow runs as separate jobs;
# each stage is also reachable directly (`./ci.sh lint`, `./ci.sh smoke`, …).
# Regenerated artifacts go under results/generated/ (gitignored); committed
# baselines live directly under results/.

GO ?= go
ARTIFACTS := results/generated

.PHONY: all build test vet fmt lint race ci fuzz smoke bench bench-engine bench-baseline bench-gate serving-baseline

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l . cmd internal)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# staticcheck when installed (the CI workflow pins and installs it);
# no-op otherwise so minimal containers still pass `make ci`.
lint: fmt
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# The race detector over every goroutine-spawning package plus the chaos
# re-run, and the short fuzz pass over each parity fuzzer: both stages are
# defined once, in ci.sh (the regression corpus of every fuzzer always runs
# as part of `make test`).
race:
	./ci.sh race

ci: build test vet lint race smoke

fuzz:
	./ci.sh fuzz

# Server smoke: boot bpmaxd on a random port, replay the committed trace
# with bpmaxload -check, SIGTERM, assert a clean drain. Writes the serving
# replay artifact to $(ARTIFACTS)/BENCH_serving.json.
smoke:
	./ci.sh smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the engine/pool + observability + caching + chaos steady-state
# tables (docs/PERFORMANCE.md, docs/OBSERVABILITY.md, docs/ROBUSTNESS.md) as
# a JSON artifact. The ext-chaos failpoints-off row gates the disabled-
# failpoint fast path: compiled-in but disarmed sites must cost nothing.
bench-engine:
	@mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/bpmaxbench -exp ext-engine,ext-metrics,ext-cache,ext-chaos,ext-substrate,ext-partition -json $(ARTIFACTS)/BENCH_engine.json

# Refresh the committed benchmark baseline that ci.sh gates against.
# Run this after an intentional performance change (or on new reference
# hardware) and commit the result.
bench-baseline:
	$(GO) run ./cmd/bpmaxbench -exp ext-engine,ext-metrics,ext-cache,ext-chaos,ext-substrate,ext-partition -repeats 5 -json results/BENCH_baseline.json

# Refresh the committed serving-replay baseline the smoke stage gates
# against: run the smoke once, then keep only the gated ext-serving table
# (the stage-attribution table varies with cache warmth, so it stays out of
# the baseline) and commit the result.
serving-baseline:
	REFRESH_SERVING_BASELINE=1 ./ci.sh smoke
	$(GO) run ./cmd/servingbaseline $(ARTIFACTS)/BENCH_serving.json results/BENCH_serving_baseline.json

# The full regression gate as CI runs it: selftest, regenerate, compare.
bench-gate:
	@mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/benchgate -baseline results/BENCH_baseline.json -selftest
	$(GO) run ./cmd/bpmaxbench -exp ext-engine,ext-metrics,ext-cache,ext-chaos,ext-substrate,ext-partition -repeats 3 -json $(ARTIFACTS)/BENCH_engine.json
	$(GO) run ./cmd/benchgate -baseline results/BENCH_baseline.json -current $(ARTIFACTS)/BENCH_engine.json
