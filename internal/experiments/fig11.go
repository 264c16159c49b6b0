package experiments

import (
	"fmt"

	"numastream/internal/hw"
	"numastream/internal/runtime"
)

// Fig 11 (§3.4): network throughput between updraft1 and lynxdtn (100
// Gbps sender NIC) as the number of symmetric send/receive thread pairs
// grows, for the Table 2 sender/receiver placement configurations.
// Compression is disabled; chunks are "the average compressed chunk
// size".

// Fig11ChunkBytes is half a projection: the average LZ4-compressed chunk.
const Fig11ChunkBytes = ChunkBytes / 2

// Fig11ThreadCounts is the thread-pair sweep.
var Fig11ThreadCounts = []int{1, 2, 3, 4, 5, 6, 7, 8}

// Fig11Result is one point of Figure 11.
type Fig11Result struct {
	Config  string
	Threads int
	Gbps    float64
}

// Fig11Network reproduces Figure 11.
func Fig11Network(threadCounts []int) ([]Fig11Result, error) {
	if threadCounts == nil {
		threadCounts = Fig11ThreadCounts
	}
	var out []Fig11Result
	for _, cfg := range Table2Configs() {
		for _, n := range threadCounts {
			st, err := pairCell{
				seed: 11,
				spec: runtime.StreamSpec{Name: fmt.Sprintf("fig11-%s-%d", cfg.Label, n), Chunks: 300, ChunkBytes: Fig11ChunkBytes},
				snd:  sender("updraft1", group(runtime.Send, n, cfg.Sender)),
				rcv:  receiver("lynxdtn", group(runtime.Receive, n, cfg.Receiver)),
			}.run()
			if err != nil {
				return nil, err
			}
			out = append(out, Fig11Result{Config: cfg.Label, Threads: n, Gbps: hw.Gbps(st.EndToEndBps())})
		}
	}
	return out, nil
}
