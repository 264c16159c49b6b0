package experiments

import (
	"fmt"

	"numastream/internal/hw"
	"numastream/internal/runtime"
)

// Fig 12 (§4.1): end-to-end single-stream throughput on the
// updraft1→lynxdtn pair for the Table 3 compression/decompression thread
// configurations, sweeping the number of send/receive thread pairs and
// the receiver threads' execution domain. Decompression threads are
// placed on the domain opposite the receive threads, the runtime's
// default rule.

// Fig12ThreadCounts is the send/receive thread-pair sweep.
var Fig12ThreadCounts = []int{1, 2, 4, 8}

// Fig12Result is one bar of Figure 12, annotated with the stage whose
// input queue ran fullest — §4.1's observation that "the bottlenecks
// within the end-to-end pipeline shift across different segments" as
// thread counts change.
type Fig12Result struct {
	Config     string
	Threads    int // send/receive thread pairs
	RecvDomain int // execution domain of the receive threads
	E2EGbps    float64
	NetGbps    float64
	Bottleneck string
}

// Fig12EndToEnd reproduces Figure 12.
func Fig12EndToEnd(threadCounts []int) ([]Fig12Result, error) {
	if threadCounts == nil {
		threadCounts = Fig12ThreadCounts
	}
	var out []Fig12Result
	for _, cfg := range Table3Configs() {
		for _, n := range threadCounts {
			for _, dom := range []int{0, 1} {
				r, err := runFig12Cell(cfg, n, dom)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

func runFig12Cell(cfg ThreadsConfig, threads, recvDomain int) (Fig12Result, error) {
	st, err := pairCell{
		seed: 21,
		spec: runtime.StreamSpec{
			Name:       fmt.Sprintf("fig12-%s-%dt-N%d", cfg.Label, threads, recvDomain),
			Chunks:     200,
			ChunkBytes: ChunkBytes,
			Ratio:      hw.CompressionRatio,
		},
		snd: sender("updraft1",
			group(runtime.Compress, cfg.Compress, runtime.SplitAll()),
			group(runtime.Send, threads, runtime.SplitAll())),
		rcv: receiver("lynxdtn",
			group(runtime.Receive, threads, runtime.PinTo(recvDomain)),
			group(runtime.Decompress, cfg.Decompress, runtime.PinTo(1-recvDomain))),
	}.run()
	if err != nil {
		return Fig12Result{}, err
	}
	return Fig12Result{
		Config:     cfg.Label,
		Threads:    threads,
		RecvDomain: recvDomain,
		E2EGbps:    hw.Gbps(st.EndToEndBps()),
		NetGbps:    hw.Gbps(st.NetworkBps()),
		Bottleneck: st.Bottleneck(),
	}, nil
}
