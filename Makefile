# Verification targets. `make check` is the full gate CI runs: build, vet,
# unit tests, and the race-enabled suite that guards the parallel workload
# executor's concurrency-safety invariant.

GO ?= go

.PHONY: build test vet race check bench bench-smoke

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
