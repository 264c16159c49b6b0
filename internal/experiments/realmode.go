package experiments

import (
	"fmt"

	"numastream/internal/metrics"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
)

// Real-execution measurement: unlike the figure harnesses (which drive
// machine models), this runs the actual goroutine pipeline — real LZ4,
// real TCP over loopback, real (attempted) thread pinning — and reports
// measured wall-clock throughput. On a laptop or CI box the absolute
// numbers reflect that machine, not the paper's testbed; the harness
// exists so the library's real mode is measurable anywhere.

// RealResult is one real-mode measurement.
type RealResult struct {
	CompressThreads int
	Chunks          int
	ChunkBytes      int
	E2EGbps         float64 // uncompressed delivery rate
	WireGbps        float64 // bytes actually sent
	Ratio           float64 // achieved compression ratio
}

// RealLoopback streams `chunks` compressible chunks through the real
// pipeline on loopback with the given compression thread count and
// measures delivery throughput.
func RealLoopback(compressThreads, chunks, chunkBytes int) (RealResult, error) {
	if compressThreads < 1 || chunks < 1 || chunkBytes < 1 {
		return RealResult{}, fmt.Errorf("experiments: invalid real-mode parameters")
	}
	recvReg := metrics.NewRegistry()
	err := loopbackPair(pipeline.SenderOptions{
		Cfg:     sender("real-src", group(runtime.Compress, compressThreads, runtime.OS()), group(runtime.Send, 2, runtime.OS())),
		Metrics: metrics.NewRegistry(),
	}, pipeline.ReceiverOptions{
		Cfg:     receiver("real-gw", group(runtime.Receive, 2, runtime.OS()), group(runtime.Decompress, compressThreads, runtime.OS())),
		Metrics: recvReg,
	}, chunks, mixedPayload(chunkBytes))
	if err != nil {
		return RealResult{}, err
	}

	res := RealResult{CompressThreads: compressThreads, Chunks: chunks, ChunkBytes: chunkBytes}
	for _, s := range recvReg.Snapshots() {
		switch s.Name {
		case "decompress":
			res.E2EGbps = s.Gbps
		case "receive":
			res.WireGbps = s.Gbps
			if s.Bytes > 0 {
				res.Ratio = float64(chunks*chunkBytes) / float64(s.Bytes)
			}
		}
	}
	return res, nil
}

// RealScaling sweeps compression thread counts on the real pipeline.
func RealScaling(threadCounts []int, chunks, chunkBytes int) ([]RealResult, error) {
	var out []RealResult
	for _, n := range threadCounts {
		r, err := RealLoopback(n, chunks, chunkBytes)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatReal renders the real-mode sweep.
func FormatReal(results []RealResult) string {
	out := "Real-execution loopback sweep (this machine, wall clock)\n"
	out += fmt.Sprintf("%10s %12s %12s %8s\n", "C threads", "e2e Gbps", "wire Gbps", "ratio")
	for _, r := range results {
		out += fmt.Sprintf("%10d %12.2f %12.2f %7.2f:1\n",
			r.CompressThreads, r.E2EGbps, r.WireGbps, r.Ratio)
	}
	return out
}
