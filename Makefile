# Common development loops for epnet. Pure Go, stdlib only.

GO ?= go

.PHONY: all build test race vet perfbench-check bench bench-json bench-compare fmt fmt-check experiments smoke-faults smoke-scenarios smoke-flows smoke-scale smoke-mega observe-demo profile-demo

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector; the parallel experiment runner
# and the concurrent-engines tests are the interesting targets.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# perfbench is its own module, so ./... above never compiles it; vet and
# test it against the current internal APIs it calls.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Hot-path microbenchmarks: event engine scheduling and fabric
# packet throughput (ns/op, allocs/op), plus the per-host cost of
# building a fabric and starting the Uniform workload (B/host).
bench:
	$(GO) test -bench . -benchmem ./internal/sim/ ./internal/fabric/ ./internal/traffic/

# Machine-readable benchmark results (JSON Lines on stdout), for
# regression tracking: make bench-json > bench.jsonl
bench-json:
	@$(GO) test -bench . -benchmem ./internal/sim/ ./internal/fabric/ ./internal/telemetry/ ./internal/traffic/ | $(GO) run ./cmd/benchjson

# Diff current benchmark times against the checked-in baseline
# (BENCH_seed.json, regenerate with: make bench-json > BENCH_seed.json).
# Regressions beyond 10% ns/op are flagged in the report, and sharded
# benchmarks get a scaling section (speedup@N / N, flagged LOW only
# when the machine had N cores to offer). The target itself never
# fails, since cross-machine benchmark noise makes a hard gate
# counterproductive — read the report.
bench-compare:
	@$(GO) test -bench . -benchmem ./internal/sim/ ./internal/fabric/ ./internal/telemetry/ ./internal/traffic/ | $(GO) run ./cmd/benchjson -compare BENCH_seed.json

fmt:
	gofmt -l -w .

# Fails if any file needs reformatting; used by CI.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

experiments:
	$(GO) run ./cmd/experiments

# Short resilience run under random faults; exercises the fault
# injector end to end without the full experiment suite.
smoke-faults:
	$(GO) run ./cmd/experiments -only faultgrid -duration 1ms -warmup 200us -fault-mttr 100us

# Scenario engine end to end: lint every embedded scenario
# (scenariolint), run one multi-phase scenario serially and one chaos
# campaign sharded, then the scenario DSL tests under the race detector.
smoke-scenarios:
	@for s in $$($(GO) run ./cmd/epsim -list-scenarios); do \
		$(GO) run ./cmd/epsim -scenario $$s -check || exit 1; done
	$(GO) run ./cmd/epsim -scenario diurnal -warmup 100us
	$(GO) run ./cmd/epsim -scenario chaos -warmup 100us -shards 4
	$(GO) test -race ./internal/scenario/
	$(GO) test -run 'TestScenario|TestSinglePhaseScenarioMatchesFlagRun|TestPhaseInsertionStability|TestPresetLoadsAsScenario' .

# Flow tracing end to end: the chaos scenario traced serially and
# sharded, with the two -flows-out reports compared byte for byte (the
# tracer rides the determinism contract), then the flow-trace and
# flight-recorder tests under the race detector. Files land in
# /tmp/epnet-flows.
smoke-flows:
	mkdir -p /tmp/epnet-flows
	$(GO) run ./cmd/epsim -scenario chaos -warmup 100us -shards 1 \
		-flow-sample 1 -flows-out /tmp/epnet-flows/serial.json
	$(GO) run ./cmd/epsim -scenario chaos -warmup 100us -shards 4 \
		-flow-sample 1 -flows-out /tmp/epnet-flows/sharded.json
	cmp /tmp/epnet-flows/serial.json /tmp/epnet-flows/sharded.json
	$(GO) test -race -run 'FlowTrace|FlightRecorder' ./internal/telemetry/ ./internal/fabric/ .
	@ls -l /tmp/epnet-flows

# Scale smoke: build an 8-ary 5-flat flattened butterfly (32,768 hosts,
# 4096 switches, ~180k channels) and push a short steady uniform load
# through it, all inside a hard wall-clock bound. Guards the flyweight
# construction path: if per-entity allocation or an O(switches²) table
# creeps back in, the build alone blows the budget. ~3s on a dev box;
# the bound leaves headroom for slow CI runners.
smoke-scale:
	timeout 60 $(GO) run ./cmd/epsim -topology fbfly -k 8 -n 5 -c 8 \
		-workload uniform -load 0.05 -warmup 20us -duration 100us -shards 0

# Mega smoke: the 262,144-host 8-ary 6-flat of the whole-run
# benchmark's mega-uniform workload (Uniform at 5%, a 20us window, two
# shards) through epsim under a hard wall-clock bound. Only ~1% of
# hosts send inside the window, so the run is dominated by build and
# source start. This target bounds time only; memory per idle host is
# gated by TestUniformStartBytesPerHost in internal/traffic.
smoke-mega:
	timeout 30 $(GO) run ./cmd/epsim -topology fbfly -k 8 -n 6 -c 8 \
		-workload uniform -load 0.05 -warmup 0 -duration 20us -shards 2

# The full observability stack gating the determinism contract: the
# same search run at -shards 1 and -shards 4 writes every file output
# in every format (metrics .csv and .jsonl, heatmap, histogram, flow
# report .json and .csv), and each pair must match byte for byte. The
# profile (wall-clock values) and the Chrome trace (serial engine only)
# are exempt. The first run also prints the per-link attribution and
# serves the inspection endpoint. Files land in /tmp/epnet-observe.
OBSERVE_DIR = /tmp/epnet-observe
OBSERVE_RUN = $(OBSERVE_DIR)/epsim -workload search -duration 1ms -warmup 200us
observe-demo:
	mkdir -p $(OBSERVE_DIR)/s1 $(OBSERVE_DIR)/s4
	$(GO) build -o $(OBSERVE_DIR)/epsim ./cmd/epsim
	$(OBSERVE_RUN) -shards 1 -attribution -listen 127.0.0.1:0
	@set -e; for s in 1 4; do d=$(OBSERVE_DIR)/s$$s; \
		$(OBSERVE_RUN) -shards $$s -metrics-out $$d/metrics.csv \
			-heatmap-out $$d/heatmap.csv -hist-out $$d/hist.csv \
			-flows-out $$d/flows.json > /dev/null; \
		$(OBSERVE_RUN) -shards $$s -metrics-out $$d/metrics.jsonl \
			-flows-out $$d/flows.csv > /dev/null; done
	@set -e; for f in metrics.csv metrics.jsonl heatmap.csv hist.csv flows.json flows.csv; do \
		cmp $(OBSERVE_DIR)/s1/$$f $(OBSERVE_DIR)/s4/$$f; done
	@ls -l $(OBSERVE_DIR)/s1 $(OBSERVE_DIR)/s4

# Engine self-profiling end to end: a sharded run with the partition
# line (-v), the critical-path report (-profile), and the JSON export
# (-profile-out), plus the live /profile endpoint test. Files land in
# /tmp/epnet-profile.
profile-demo:
	mkdir -p /tmp/epnet-profile
	$(GO) run ./cmd/epsim -workload search -duration 1ms -warmup 200us \
		-shards 4 -v -profile \
		-profile-out /tmp/epnet-profile/profile.json
	$(GO) test -run 'TestInspectorProfileEndpoint|TestProfileOutFormats' -v .
	@ls -l /tmp/epnet-profile
