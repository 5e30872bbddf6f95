# Verification targets. `make check` is the full gate CI runs: build, vet,
# unit tests, and the race-enabled suite that guards the parallel workload
# executor's concurrency-safety invariant.

GO ?= go

.PHONY: build test vet race check bench bench-smoke bench-reorg bench-serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check: build vet test race

# The repository's benchmark (BENCHMARK.json): four workloads, end-to-end
# and per-layer metrics, result digests checked on every run.
bench:
	bash bench/run.sh

# Compiles and runs the benchmark harness at toy scale. bench/ is a module
# of its own, so the root build, vet and test targets do not reach it.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test ./...

# Incremental-reorganization daemon benchmark with a JSON result snapshot.
# Drives the reorgd daemon over the TPC-H 1-11 → 12-22 drift stream and
# records stale/full/daemon blocks-per-query, the recovered fraction of the
# stale→full gap, per-cycle write accounting, and the full deterministic
# cycle trace in BENCH_reorg.json.
bench-reorg:
	$(GO) run ./cmd/mtobench -exp reorg -daemon -sf 0.01 -per-template 2 \
		-benchjson BENCH_reorg.json

# Sustained-load multi-tenant serving benchmark with a JSON result
# snapshot. Boots the three-tenant serving stack (SSB, drifting TPC-H with
# a live reorg daemon, TPC-DS), drives 1M queries through admission
# control, fair queueing, and the result cache, samples served-vs-direct
# identity throughout, and records throughput, p50/p99/p99.9 latency,
# cache and buffer-pool hit rates, and the daemon's cycle trace in
# BENCH_serve.json. The acceptance bar is >=1 live generation swap
# mid-load with every verified sample byte-identical.
bench-serve:
	mkdir -p /tmp/mto-serve-segments
	$(GO) run ./cmd/mtobench -exp serve -store disk \
		-datadir /tmp/mto-serve-segments -cache-mb 64 \
		-serve-queries 1000000 -serve-benchjson BENCH_serve.json
