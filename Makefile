# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test bench-vet race test-race fuzz-smoke bench bench-json bench-diff repro repro-quick examples vet fmt cover clean

all: build test

build:
	$(GO) build ./...

# The default test path runs go vet, then the whole suite. Everything
# else `make test` checks — the daemon's HTTP end to end, the metric
# catalog, docs coverage, gofmt-clean source and doc comments, the
# benchmark module's vet — is an ordinary test under `go test ./...`.
test: vet
	$(GO) test ./...

# bench/ is its own Go module, so `go test ./...` does not compile it;
# TestBenchModuleVets runs this same vet as part of the suite. The
# target stays for running it on its own.
bench-vet:
	cd bench && GOWORK=off $(GO) vet .

race test-race:
	$(GO) test -race ./...

# Short fuzzing runs of the hostile-input targets; long enough to shake
# out crashes in the decode→parse→compile path without stalling CI.
# FuzzExposition caps input minimization at 200 runs: under the default
# 60s cap, minimizing its first new input takes the whole run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/ir
	$(GO) test -run='^$$' -fuzz=FuzzParseCompile -fuzztime=$(FUZZTIME) ./internal/compile
	$(GO) test -run='^$$' -fuzz=FuzzMemlatSpec -fuzztime=$(FUZZTIME) ./internal/memlat
	$(GO) test -run='^$$' -fuzz=FuzzDiskCacheCodec -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzPolicySchedule -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzDepsReference -fuzztime=$(FUZZTIME) ./internal/deps
	$(GO) test -run='^$$' -fuzz=FuzzKernelReference -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzExposition -fuzztime=$(FUZZTIME) -fuzzminimizetime=200x ./internal/obs

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf baseline: run the serve-path (loopback and
# in-process handler), block-reuse, credit-pass, policy-portfolio and
# per-layer (IR codec through the miss path's whole-block
# compile.RunBlock) benchmarks programmatically and write
# BENCH_$(BENCH).json (per benchmark the best of 5 runs' ns/op,
# allocs/op and B/op, and the runs' spread) so the perf trajectory can
# be diffed across changes. Five runs of every row take about six
# minutes on 2 cores, hence the timeout above go test's 10-minute default.
BENCH ?= 21
BENCH_BASE ?= 18
bench-json:
	$(GO) test -timeout 30m -run '^TestBenchJSON$$' -bench-json BENCH_$(BENCH).json .

# Gate the perf trajectory: compare BENCH_$(BENCH).json against the
# BENCH_$(BENCH_BASE).json baseline and fail on any shared benchmark
# regressing more than 10% in ns/op, or in allocs/op by more than 10% and
# more than 2 allocs. Run `make bench-json` first.
bench-diff:
	$(GO) run ./cmd/benchdiff BENCH_$(BENCH_BASE).json BENCH_$(BENCH).json

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper (plus ablations).
repro:
	$(GO) run ./cmd/paperrepro

repro-quick:
	$(GO) run ./cmd/paperrepro -quick

# Run every example program.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/latency_sweep
	$(GO) run ./examples/compiler_pipeline
	$(GO) run ./examples/custom_kernel
	$(GO) run ./examples/superscalar
	$(GO) run ./examples/historical

clean:
	$(GO) clean ./...
