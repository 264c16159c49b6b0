package experiments

import (
	"fmt"

	"numastream/internal/hw"
	"numastream/internal/runtime"
)

// Compression-ratio sweep (extension of §1's arithmetic): "consider a
// system operating at 100 Gbps; if some cores are employed for
// compression at a 2X compression ratio, the effective data transfer
// rate is effectively doubled to 200 Gbps". This sweep varies the
// achieved ratio and shows the two regimes: network-bound (effective
// rate = ratio × link) while compression capacity lasts, then
// compute-bound (effective rate = compression throughput) beyond.

// RatioResult is one sweep point.
type RatioResult struct {
	Ratio      float64
	E2EGbps    float64
	NetGbps    float64
	Bottleneck string
}

// RatioSweep measures end-to-end throughput across compression ratios
// with a full 32-thread compressor (≈148 Gbps of input capacity) and an
// 8-thread network path over a 100 Gbps link, exposing both regimes:
// link-bound at low ratios, compression-bound once ratio × link exceeds
// the compressor.
func RatioSweep(ratios []float64) ([]RatioResult, error) {
	if ratios == nil {
		ratios = []float64{1, 1.5, 2, 3, 4}
	}
	var out []RatioResult
	for _, ratio := range ratios {
		if ratio < 1 {
			return nil, fmt.Errorf("experiments: ratio %v < 1", ratio)
		}
		r, err := runRatioCell(ratio)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runRatioCell(ratio float64) (RatioResult, error) {
	st, err := pairCell{
		seed: 51,
		spec: runtime.StreamSpec{Name: fmt.Sprintf("ratio-%.1f", ratio), Chunks: 150, ChunkBytes: ChunkBytes, Ratio: ratio},
		snd: sender("updraft1",
			group(runtime.Compress, 32, runtime.SplitAll()),
			group(runtime.Send, 8, runtime.SplitAll())),
		rcv: receiver("lynxdtn",
			group(runtime.Receive, 8, runtime.PinTo(1)),
			group(runtime.Decompress, 16, runtime.PinTo(0))),
	}.run()
	if err != nil {
		return RatioResult{}, err
	}
	return RatioResult{
		Ratio:      ratio,
		E2EGbps:    hw.Gbps(st.EndToEndBps()),
		NetGbps:    hw.Gbps(st.NetworkBps()),
		Bottleneck: st.Bottleneck(),
	}, nil
}

// FormatRatio renders the sweep.
func FormatRatio(results []RatioResult) string {
	out := "Compression-ratio sweep (extension of §1): effective rate vs ratio\n"
	out += fmt.Sprintf("%8s %10s %10s %12s\n", "ratio", "e2e Gbps", "net Gbps", "bottleneck")
	for _, r := range results {
		out += fmt.Sprintf("%7.1fx %10.1f %10.1f %12s\n", r.Ratio, r.E2EGbps, r.NetGbps, r.Bottleneck)
	}
	return out
}
