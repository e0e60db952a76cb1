GO ?= go

.PHONY: all build vet lint test race bench bench-stats-gate profile-smoke profile-gate gobench fuzz chaos trace-smoke cover serve ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint fails when any file is not gofmt-clean, then vets.
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the calibrated harness in short mode and writes BENCH_<n>.json.
# Gate a change against a saved baseline with:
#   go run ./cmd/chop bench -compare BENCH_1.json BENCH_2.json -tolerance 10
bench:
	$(GO) run ./cmd/chop bench -short -json

# bench-stats-gate bounds the telemetry plane's overhead: the search/stats
# workloads must stay within STATS_GATE percent of their search/stress
# partners. Runs at the full (non-short) budget — a single short iteration
# is too noisy to gate a few-percent delta on.
STATS_GATE ?= 5
bench-stats-gate:
	$(GO) run ./cmd/chop bench -run search/st -stats-gate $(STATS_GATE)

# profile-smoke records a short phase-attribution profile of the search
# workload into PROFILE_DIR: cpu.pprof, heap.pprof and profile.json. Gate a
# change against a committed baseline with:
#   go run ./cmd/chop profile -compare <baseline-dir> -alloc-tolerance 10
PROFILE_DIR ?= profile-smoke
profile-smoke:
	$(GO) run ./cmd/chop profile -short -dir $(PROFILE_DIR)

# profile-gate holds BAD's and the search's allocations per op to the
# committed baselines in bench/baseline/ (chop profile -short -json
# reports): a workload allocating over 10% more per op than its baseline
# fails. Allocs/op are deterministic; time is reported but not gated.
# Refresh a baseline after an intended change with:
#   go run ./cmd/chop profile -short -json -workload exp2/counts > bench/baseline/exp2/counts.json
profile-gate:
	@for w in exp1/counts exp2/counts search/stress/w1; do \
		$(GO) run ./cmd/chop profile -short -workload $$w \
			-compare bench/baseline/$$w.json -alloc-tolerance 10 || exit 1; \
	done

# gobench runs the in-tree go test benchmarks (overhead gates etc.).
# -run '^$' matches no test name, so only benchmarks execute (-run XXX
# relied on no test happening to contain the substring).
gobench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# fuzz smoke-tests the predictor-cache content key (determinism,
# rename-insensitivity, mutation-sensitivity, no panics), the compiled
# urgency scheduler against its cycle-stepping referee, BAD's compiled
# list and modulo schedulers against their map-based referees, and the
# serve plane's untrusted decoders — spec JSON (parse-time bounds), the
# traceparent header (round trip) and search checkpoints (a garbled file
# falls back to a fresh search) — FUZZTIME each. The decoder targets skip
# their packages' unit tests (-run '^$$'); `make test` runs those.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzPredictCacheKey -fuzztime=$(FUZZTIME) ./internal/bad
	$(GO) test -fuzz=FuzzScheduleMatchesReference -fuzztime=$(FUZZTIME) ./internal/urgency
	$(GO) test -fuzz=FuzzListScheduleMatchesReference -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzSpecParse -fuzztime=$(FUZZTIME) ./internal/spec
	$(GO) test -run='^$$' -fuzz=FuzzParseTraceparent -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRestore -fuzztime=$(FUZZTIME) ./internal/core

# chaos runs the fault-injected service-plane smoke: an in-process server
# with ~10% injected job faults under random submissions and cancels,
# asserting the registry drains clean (no stuck runs, no leaked goroutines).
CHAOS_SECS ?= 30
CHAOS_STATS_OUT ?= chaos-stats.jsonl
chaos:
	CHOP_CHAOS_SMOKE=1 CHOP_CHAOS_SMOKE_SECS=$(CHAOS_SECS) \
		CHOP_CHAOS_STATS_OUT=$(abspath $(CHAOS_STATS_OUT)) \
		$(GO) test ./internal/serve -run TestChaosSmoke -count=1 -v

# trace-smoke exercises distributed tracing end to end across two real
# processes: chop serve -trace and a traced chop submit, stitched with
# chop trace -fail-on-orphans (fails on broken parent links) and exported
# as TRACE_SMOKE_DIR/perfetto.json for ui.perfetto.dev.
TRACE_SMOKE_DIR ?= trace-smoke
trace-smoke:
	TRACE_SMOKE_DIR=$(TRACE_SMOKE_DIR) ./scripts/trace-smoke.sh

# cover writes coverage.out plus a browsable HTML report.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	$(GO) tool cover -func=coverage.out | tail -1

# serve starts the HTTP service plane on :8080.
serve:
	$(GO) run ./cmd/chop serve -addr :8080 -log-level debug

# ci is what .github/workflows/ci.yml runs.
ci: lint build race
