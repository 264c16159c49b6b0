package experiments

import (
	"fmt"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
	"numastream/internal/trace"
)

// Wire-journey harness: the real pipeline on loopback with WireTrace on,
// producing the merged cross-host trace and the end-to-end latency
// decomposition the distributed profiler exists for. The sender and
// receiver run as two pipeline nodes over real TCP with separate
// registries — exactly the two-process deployment, minus the second host.

// JourneyResult summarizes one wire-journey run.
type JourneyResult struct {
	Chunks     int
	ChunkBytes int
	E2EP50     time.Duration // sender compress-start → receiver delivery
	E2EP99     time.Duration
	WireP50    time.Duration // sender send → receiver frame arrival
	WireP99    time.Duration
	Offset     time.Duration // last clock-offset estimate (sender − receiver)
	BadCtx     int64         // trace contexts that failed to decode
}

// WireJourneyLoopback streams chunks through a WireTrace sender into a
// tracing receiver on loopback. The receiver records into reg (nil for a
// private registry — pass the telemetry registry to watch live) and the
// returned tracer holds the merged journey trace: receiver spans plus
// offset-corrected sender spans, flow-linked per chunk.
func WireJourneyLoopback(reg *metrics.Registry, chunks, chunkBytes int) (*trace.Tracer, JourneyResult, error) {
	if chunks < 1 || chunkBytes < 1 {
		return nil, JourneyResult{}, fmt.Errorf("experiments: invalid journey parameters")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	tr := trace.New(1 << 20)
	err := loopbackPair(pipeline.SenderOptions{
		Cfg:       sender("journey-src", group(runtime.Compress, 2, runtime.OS()), group(runtime.Send, 2, runtime.OS())),
		Metrics:   metrics.NewRegistry(),
		WireTrace: true,
	}, pipeline.ReceiverOptions{
		Cfg:     receiver("journey-gw", group(runtime.Receive, 2, runtime.OS()), group(runtime.Decompress, 2, runtime.OS())),
		Metrics: reg,
		Tracer:  tr,
	}, chunks, mixedPayload(chunkBytes))
	if err != nil {
		return nil, JourneyResult{}, err
	}

	e2e := reg.Histogram(pipeline.HistChunkE2E)
	wire := reg.Histogram(pipeline.HistChunkWire)
	res := JourneyResult{
		Chunks:     chunks,
		ChunkBytes: chunkBytes,
		E2EP50:     time.Duration(e2e.Quantile(0.5)),
		E2EP99:     time.Duration(e2e.Quantile(0.99)),
		WireP50:    time.Duration(wire.Quantile(0.5)),
		WireP99:    time.Duration(wire.Quantile(0.99)),
		Offset:     time.Duration(reg.Gauge(pipeline.GaugeClockOffset).Value()),
		BadCtx:     reg.CounterValue(pipeline.CtrBadTraceCtx),
	}
	return tr, res, nil
}

// FormatJourney renders a wire-journey run.
func FormatJourney(r JourneyResult) string {
	out := "Wire-journey loopback (real pipeline, merged cross-process trace)\n"
	out += fmt.Sprintf("  chunks          %d x %d bytes\n", r.Chunks, r.ChunkBytes)
	out += fmt.Sprintf("  e2e latency     p50 %v  p99 %v\n", r.E2EP50.Round(time.Microsecond), r.E2EP99.Round(time.Microsecond))
	out += fmt.Sprintf("  wire latency    p50 %v  p99 %v\n", r.WireP50.Round(time.Microsecond), r.WireP99.Round(time.Microsecond))
	out += fmt.Sprintf("  clock offset    %v (handshake midpoint estimate)\n", r.Offset.Round(time.Microsecond))
	out += fmt.Sprintf("  bad trace ctx   %d\n", r.BadCtx)
	return out
}
