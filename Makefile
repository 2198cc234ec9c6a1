# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test bench-vet race test-race fuzz-smoke serve-smoke metrics-smoke chaos-smoke cluster-smoke batch-smoke fleet-obs-smoke policy-smoke doc-lint bench bench-json bench-diff repro repro-quick examples vet fmt cover clean

all: build test

build:
	$(GO) build ./...

# The default test path runs go vet, the benchmark module's vet, the unit
# suites, the documentation lint, the /metrics smoke check, the chaos/overload smoke check, the
# multi-node cluster smoke check, the streaming batch smoke check, the
# fleet observability smoke check and the scheduling-policy portfolio
# smoke check, so a vet, metric, doc, resilience, fleet, streaming,
# observability or policy regression fails `make test` the same way a
# unit failure does.
test: vet doc-lint bench-vet
	$(GO) test ./...
	$(MAKE) metrics-smoke
	$(MAKE) chaos-smoke
	$(MAKE) cluster-smoke
	$(MAKE) batch-smoke
	$(MAKE) fleet-obs-smoke
	$(MAKE) policy-smoke

# bench/ is its own Go module, so `go test ./...` never compiles it; vet
# it here so an API change that breaks the benchmark fails `make test`
# rather than the benchmark run.
bench-vet:
	cd bench && GOWORK=off $(GO) vet .

race test-race:
	$(GO) test -race ./...

# Short fuzzing runs of the hostile-input targets; long enough to shake
# out crashes in the parse→compile path without stalling CI.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseCompile -fuzztime=$(FUZZTIME) ./internal/compile
	$(GO) test -run='^$$' -fuzz=FuzzMemlatSpec -fuzztime=$(FUZZTIME) ./internal/memlat
	$(GO) test -run='^$$' -fuzz=FuzzDiskCacheCodec -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzPolicySchedule -fuzztime=$(FUZZTIME) ./internal/sched

# Build the bschedd compilation daemon and round-trip one request
# through the full HTTP stack (plus a cache-hit check); exits non-zero
# on any failure. See docs/SERVER.md.
serve-smoke:
	$(GO) run ./cmd/bschedd -smoke examples/ir/demo.ir

# Same round trip, then scrape GET /metrics and assert every metric
# family cataloged in docs/OBSERVABILITY.md is present with samples.
metrics-smoke:
	$(GO) run ./cmd/bschedd -metrics-smoke examples/ir/demo.ir

# Drive the overload-resilience machinery under injected disk faults:
# the circuit breaker must trip and recover, tenant quotas must 429
# with honest headers, and everything must show up in /stats and
# /metrics. See docs/ROBUSTNESS.md, "Overload behavior".
chaos-smoke:
	$(GO) run ./cmd/bschedd -log-format none -chaos-smoke examples/ir/demo.ir

# Bring up an in-process 3-node fleet wired as mutual peers and spray a
# Zipf-skewed request stream round-robin across it: every request must
# succeed, peer probes must land hits, and no probe may error. See
# docs/CLUSTER.md.
cluster-smoke:
	$(GO) run ./cmd/bschedd -log-format none -cluster-smoke examples/ir/demo.ir

# Post a two-program batch to the streaming /v1/compile/batch endpoint
# and validate the NDJSON stream frame by frame: every block exactly
# once, a trailer per program, a final done frame, and each distinct
# block compiled exactly once across the batch. See docs/API.md.
batch-smoke:
	$(GO) run ./cmd/bschedd -log-format none -batch-smoke examples/ir/demo.ir

# Drive the fleet observability plane over an in-process 3-node fleet:
# /v1/fleet/stats totals must equal the sum of the node-local counters
# exactly, a peer-served compile must stitch into one cross-node trace,
# the merged /v1/fleet/metrics must pass the strict exposition
# validator, the continuous profiler must land a capture, and a killed
# node must degrade the view instead of failing it. See
# docs/OBSERVABILITY.md, "Fleet observability".
fleet-obs-smoke:
	$(GO) run ./cmd/bschedd -log-format none -fleet-obs-smoke examples/ir/demo.ir

# Drive the scheduling-policy portfolio end to end over HTTP: every
# registered policy plus auto, per-policy cache keys, the legacy
# default sharing the forced-balanced entry, per-block auto selection
# on a mixed program, the -policy forced override, and the per-policy
# /stats and /metrics counters. See docs/POLICIES.md.
policy-smoke:
	$(GO) run ./cmd/bschedd -log-format none -policy-smoke examples/ir/demo.ir

# Documentation hygiene: source is gofmt-clean, the packages godoc
# renders without error (a parse failure here means a malformed doc
# comment), and the HTTP API reference covers every served endpoint.
# Vet runs as its own `make test` prerequisite.
doc-lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@for pkg in ./internal/obs ./internal/server ./internal/engine ./internal/cluster ./internal/compile; do \
		$(GO) doc $$pkg >/dev/null || exit 1; done
	@for doc in docs/API.md docs/CACHE-KEYS.md docs/POLICIES.md; do \
		[ -f $$doc ] || { echo "missing $$doc"; exit 1; }; done
	@for pol in balanced traditional average balanced-dense critical-path auto; do \
		grep -q "\`$$pol\`" docs/POLICIES.md || { echo "docs/POLICIES.md missing policy: $$pol"; exit 1; }; done
	@grep -q "policy" docs/API.md || { echo "docs/API.md missing the policy option"; exit 1; }
	@for ep in "POST /v1/compile" "POST /v1/compile/batch" "GET /v1/peer/lookup" "PUT /v1/peer/offer" "GET /healthz" "GET /stats" "GET /metrics" "GET /v1/traces" "GET /v1/fleet/stats" "GET /v1/fleet/metrics" "GET /v1/peer/trace" "GET /v1/profiles"; do \
		grep -q "$$ep" docs/API.md || { echo "docs/API.md missing endpoint: $$ep"; exit 1; }; done

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf baseline: run the serve-path, block-reuse,
# credit-pass and policy-portfolio benchmarks programmatically and write
# BENCH_10.json (ns/op, allocs/op, B/op per benchmark) so the perf
# trajectory can be diffed across PRs.
bench-json:
	$(GO) test -run '^TestBenchJSON$$' -bench-json BENCH_10.json .

# Gate the perf trajectory: compare this PR's benchmark baseline against
# the previous one and fail on any shared benchmark regressing more than
# 10% in ns/op. Run `make bench-json` first to produce BENCH_10.json.
bench-diff:
	$(GO) run ./cmd/benchdiff BENCH_9.json BENCH_10.json

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
