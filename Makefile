# Standard developer targets. CI runs `make check`.

GO ?= go

.PHONY: build test vet race check bench bench-build handoff-bench lz4-fuzz sim-golden churn-drill report-drill stream-drill fleet-drill adapt-drill examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The first line fails on any Go file (benchmark module included) that
# is not gofmt-clean. `go vet` also runs asmdecl over the bitshuffle,
# LZ4 and CRC-32C kernels and the CPUID probe (each .s file's frame
# offsets against its Go declarations). The last two lines type-check
# what no native build on the CI host compiles: the non-Linux affinity
# stubs and guard-page fallback, and the Go bitshuffle and LZ4 kernels
# and hash/crc32-only CRC-32C path every non-amd64 build runs.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/numa ./internal/pipeline ./internal/bitshuffle ./internal/crc32c ./internal/guardmem
	GOARCH=arm64 $(GO) vet ./internal/bitshuffle ./internal/pipeline ./internal/lz4 ./internal/crc32c ./internal/cpufeat

# Race-detector pass over the concurrent transport/pipeline paths
# (reconnect, send horizons, quarantine accounting, queues), the buffer
# pool (lease aliasing, cross-domain steals), the telemetry layer
# (histograms, live endpoint), and the tracing layer
# (concurrent Add/WriteJSON, chunk framing), the snapshot-diff
# observer (scrape-while-streaming), and the fleet aggregator
# (Start/Stop ticker, concurrent Status/Alerts reads, HTTP scraping),
# and the adaptive placement controller (window callbacks racing pool
# resizes; the elastic-pool storm tests live in internal/pipeline), and
# thread placement (internal/numa).
race:
	$(GO) test -race ./internal/adapt/... ./internal/bufpool/... ./internal/faults/... ./internal/fleet/... ./internal/metrics/... ./internal/msgq/... ./internal/numa/... ./internal/obs/... ./internal/pipeline/... ./internal/queue/... ./internal/telemetry/... ./internal/trace/...
	$(GO) test -race -run 'TestChurn|TestMultiHop|TestThousand|TestAdapt' ./internal/cluster/... ./internal/experiments/...

# Churn drill: the seeded netsim churn storm (multi-hop topology events,
# per-event fault attribution) and the real-mode relay kill/restart
# drill (exactly-once ledger: delivered == sent, dups dropped, no
# holes). These also run under `make test`; the named target is the
# quick way to replay just the storm.
churn-drill:
	$(GO) test -count=1 -run 'TestChurn|TestMultiHop|TestTopo|TestForwarder|TestLedger' ./internal/faults/... ./internal/cluster/... ./internal/pipeline/... ./internal/experiments/...

# Report drill: run the degraded-link simulation with self-diagnosis on
# and assert the report is well-formed — at least one window, and every
# window carries a verdict (the '"t0":' key count is per-window; the run
# bounds use "t0_run"/"t1_run" precisely so this grep stays exact).
report-drill:
	$(GO) run ./cmd/experiments -fig none -degraded -report report-drill.json
	@windows=$$(grep -c '"t0":' report-drill.json); \
	verdicts=$$(grep -c '"verdict":' report-drill.json); \
	if [ "$$windows" -eq 0 ] || [ "$$windows" -ne "$$verdicts" ]; then \
		echo "report-drill: $$windows windows vs $$verdicts verdicts"; exit 1; \
	fi; \
	echo "report-drill: $$windows windows, every one carries a verdict"

# Stream drill: the thousand-stream gateway soak. First a deterministic
# 256-stream loopback pass through the real sharded receive path — the
# exactly-once ledger must close on every stream (holes 0, abandoned 0)
# with the slowest stream at >= 50% of fair per-stream throughput. Then
# the 1000-stream simulated drill twice with the same seed: both runs
# must pass the same assertions and render byte-identical JSON.
stream-drill:
	$(GO) run ./cmd/loadgen --mode loopback --streams 256 --chunks 16 --chunk-bytes 16384 --seed 42 --assert
	$(GO) run ./cmd/loadgen --streams 1000 --seed 42 --json stream-drill-a.json --assert
	$(GO) run ./cmd/loadgen --streams 1000 --seed 42 --json stream-drill-b.json --assert
	cmp stream-drill-a.json stream-drill-b.json
	@echo "stream-drill: 256-stream loopback soak + byte-identical 1000-stream sim"

# Fleet drill: the cluster control tower. The multi-hop sim throttles
# the relay1-gateway uplink to 5% and the cluster verdict must name
# that hop (node + link) as dominant, with the fair-share SLO alert
# firing exactly once, resolving after the throttle lifts, and an
# alert-triggered pprof pair landing in fleet-profiles/. Then the
# churn storm must fire and resolve the hop-availability alert. The
# drill contract is asserted by Check() inside the binary.
fleet-drill:
	$(GO) run ./cmd/experiments -fig none -fleet -profile-dir fleet-profiles
	@ls fleet-profiles/*.pprof >/dev/null 2>&1 || { echo "fleet-drill: no profile artifacts captured"; exit 1; }
	@echo "fleet-drill: cluster verdicts checked, alert-triggered profiles captured"

# Adapt drill: the convergence contract for the adaptive placement
# controller. The deterministic sim drill starts from a deliberately bad
# config (one compress worker, everything pinned to one socket), lets
# the controller watch the self-diagnosis windows and resize/re-pin the
# elastic pools, and Check() inside the binary asserts convergence to
# within 10% of the hand-tuned config, the tuned config drawing zero
# actions, and the bad config staying visibly slow uncontrolled. Run
# twice with the same seed: the action logs (and the whole result JSON)
# must be byte-identical. The elastic-pool storm tests then replay the
# randomized Grow/Shrink churn against a live loopback pipeline under
# the race detector (exactly-once ledger, no worker leaks, abort never
# wedges mid-retire), and the sender, receiver and forwarder teardown
# tables run three times uncached (every exit cause returns in bounded
# time with no lease, goroutine or worker left).
adapt-drill:
	$(GO) run ./cmd/experiments -fig none -adapt -adapt-json adapt-drill-a.json
	$(GO) run ./cmd/experiments -fig none -adapt -adapt-json adapt-drill-b.json
	cmp adapt-drill-a.json adapt-drill-b.json
	$(GO) test -race -count=3 -run 'TestPool|TestElastic|TestRetire|TestControls|Teardown' ./internal/pipeline/...
	@echo "adapt-drill: byte-identical convergence runs + elastic storm and teardown tables clean under -race"

# Simulator golden: every simulated figure and drill the quick CLI run
# prints (about 0.3 s), compared byte for byte with the committed
# internal/experiments/testdata/quick.golden. It pins every simulated
# number the way benchmark/layers.go pins Fig 12 and Fig 14, so neither
# a refactor of the harnesses nor a recalibration of the machine model
# moves a figure unnoticed. When a change means to move numbers,
# regenerate the file with
#   go run ./cmd/experiments $(SIM_GOLDEN_FLAGS) > internal/experiments/testdata/quick.golden
# and say in the change's description why they moved.
SIM_GOLDEN_FLAGS = -quick -fig all -degraded -churn -fleet -adapt
sim-golden:
	$(GO) run ./cmd/experiments $(SIM_GOLDEN_FLAGS) | diff -u internal/experiments/testdata/quick.golden -
	@echo "sim-golden: simulated figures and drills match internal/experiments/testdata/quick.golden"

# The repository benchmark (benchmark/, see BENCHMARK.json) is a module
# of its own that imports internal/pipeline and internal/msgq through a
# replace directive, so the root build, vet and test never compile it.
# Vet it and run its quick mode (about 12 s: every workload end to end
# with the correctness oracle on) so a refactor of those internals
# cannot break the yardstick unnoticed.
bench-build:
	$(GO) -C benchmark vet ./... && $(GO) -C benchmark test ./...

# One iteration each of internal/pipeline's two micro-benchmarks, so
# they keep compiling and running: the queue → worker → queue hand-off
# (unpinned, whole-host CPU set, one-CPU set) and the raw loopback stream
# (1 MiB incompressible chunks, no compress stage, one send worker).
# `-benchtime 1s` gives numbers (DESIGN.md quotes the hand-off ones).
handoff-bench:
	$(GO) test ./internal/pipeline -run '^$$' -bench 'PoolHandoff|LoopbackRaw' -benchtime 1x

# The LZ4 kernels are assembly on amd64, with no bounds checks: the
# decoder stores 16 bytes at a time right up to the slack it has checked
# for, and the compressor's emit does the same into dst — the kind of
# code that grows out-of-bounds bugs. The bitshuffle kernels that run
# before and after them are assembly too, and so is the CRC-32C kernel
# that sums every frame. Under `go test` the fuzz targets only replay
# their seed corpus; here each mutates for 15 s: the
# compressor against the Go parse byte for byte (FuzzCompressMatchesGo),
# every block against the format's rules and back through the decoders
# (FuzzRoundTrip), both LZ4 fast loops against the byte-wise reference
# decoder on arbitrary bytes (FuzzDecompressNeverPanics) — every LZ4
# buffer ending at a PROT_NONE page, so an access past it faults — the
# bitshuffle kernels against the portable Go code, and the CRC-32C kernel
# against hash/crc32 from any seed and alignment (FuzzCRC32C).
lz4-fuzz:
	$(GO) test ./internal/lz4 -run '^$$' -fuzz FuzzRoundTrip -fuzztime 15s
	$(GO) test ./internal/lz4 -run '^$$' -fuzz FuzzCompressMatchesGo -fuzztime 15s
	$(GO) test ./internal/lz4 -run '^$$' -fuzz FuzzDecompressNeverPanics -fuzztime 15s
	$(GO) test ./internal/bitshuffle -run '^$$' -fuzz FuzzBitshuffle -fuzztime 15s
	$(GO) test ./internal/crc32c -run '^$$' -fuzz FuzzCRC32C -fuzztime 15s

# The programs under examples/ are the worked uses of the public API
# the README points to: run each to completion, so an API change that
# breaks one fails here. A failing example's output is printed.
examples:
	@for e in examples/*/; do \
		echo "go run ./$$e"; \
		out=$$($(GO) run ./$$e 2>&1) || { echo "$$out"; exit 1; }; \
	done

# The single CI entry point: build, vet, tests, simulator golden,
# benchmark module, pipeline micro-benchmarks, LZ4, bitshuffle and CRC-32C fuzzers (75 s), race pass,
# churn drill, report drill, stream drill, fleet drill, adapt drill, examples.
check: build vet test sim-golden bench-build handoff-bench lz4-fuzz race churn-drill report-drill stream-drill fleet-drill adapt-drill examples

# Human-readable benchmark run over the root suite (the paper figures,
# the mechanism ablations, the elastic pool's resize cycle). Performance
# claims are made on the repository benchmark (BENCHMARK.json,
# benchmark/run.sh), not on these.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem
