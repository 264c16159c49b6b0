package pipeline

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"numastream/internal/metrics"
	"numastream/internal/runtime"
)

// TestGatewayServesMultipleSenders is the real-execution Figure 13:
// several sender nodes push concurrently into one gateway, which
// separates the streams by id and delivers every chunk of each intact —
// through a single inbox and through a sharded exactly-once intake.
func TestGatewayServesMultipleSenders(t *testing.T) {
	cases := []struct {
		name               string
		senders, perSender int
		chunkSize          int
		sCfg               runtime.NodeConfig
		shards, rings      int
		exactlyOnce        bool
	}{
		{name: "single inbox", senders: 2, perSender: 25, chunkSize: 32 << 10, sCfg: senderCfg(2, 2), shards: 0, rings: 1},
		{name: "sharded exactly-once", senders: 6, perSender: 20, chunkSize: 16 << 10, sCfg: senderCfg(1, 1), shards: 4, rings: 4, exactlyOnce: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			totalChunks := tc.senders * tc.perSender
			topo := testTopo()
			reg := metrics.NewRegistry()
			var ledger *Ledger
			if tc.exactlyOnce {
				ledger = NewLedger(reg, 0)
			}

			ready := make(chan string, 1)
			var mu sync.Mutex
			type key struct {
				stream uint32
				seq    uint64
			}
			got := make(map[key][]byte)
			recvDone := make(chan error, 1)
			go func() {
				recvDone <- RunReceiver(ReceiverOptions{
					Cfg:         receiverCfg(2, 2),
					Topo:        topo,
					Bind:        "127.0.0.1:0",
					Expect:      totalChunks,
					Metrics:     reg,
					Ready:       ready,
					Shards:      tc.shards,
					ExactlyOnce: tc.exactlyOnce,
					Ledger:      ledger,
					Sink: func(c Chunk) error {
						mu.Lock()
						defer mu.Unlock()
						k := key{c.Stream, c.Seq}
						if _, dup := got[k]; dup {
							return fmt.Errorf("duplicate chunk %v", k)
						}
						data := make([]byte, len(c.Data))
						copy(data, c.Data)
						got[k] = data
						return nil
					},
				})
			}()
			addr := <-ready

			// Launch the senders concurrently, each with a distinct stream
			// id and distinguishable payloads.
			mkChunk := func(stream uint32, i int) []byte {
				pat := []byte(fmt.Sprintf("s%d-c%04d|", stream, i))
				return bytes.Repeat(pat, tc.chunkSize/len(pat)+1)[:tc.chunkSize]
			}
			errs := make(chan error, tc.senders)
			for s := uint32(0); s < uint32(tc.senders); s++ {
				go func(stream uint32) {
					i := 0
					errs <- RunSender(SenderOptions{
						Cfg:      tc.sCfg,
						Topo:     topo,
						Peers:    []string{addr},
						StreamID: stream,
						Source: func() []byte {
							if i >= tc.perSender {
								return nil
							}
							c := mkChunk(stream, i)
							i++
							return c
						},
					})
				}(s)
			}
			for s := 0; s < tc.senders; s++ {
				if err := <-errs; err != nil {
					t.Fatalf("sender: %v", err)
				}
			}
			if err := <-recvDone; err != nil {
				t.Fatalf("receiver: %v", err)
			}

			if len(got) != totalChunks {
				t.Fatalf("delivered %d chunks, want %d", len(got), totalChunks)
			}
			for s := uint32(0); s < uint32(tc.senders); s++ {
				if ledger != nil {
					if d := ledger.DeliveredStream(s); d != int64(tc.perSender) {
						t.Fatalf("stream %d: ledger has %d, want %d", s, d, tc.perSender)
					}
					if h := ledger.Holes(s); len(h) != 0 {
						t.Fatalf("stream %d: %d holes", s, len(h))
					}
				}
				for i := 0; i < tc.perSender; i++ {
					if !bytes.Equal(got[key{s, uint64(i)}], mkChunk(s, i)) {
						t.Fatalf("stream %d chunk %d corrupted or misattributed", s, i)
					}
				}
			}
			if rej := reg.CounterValue(CtrStreamsRejected); rej != 0 {
				t.Fatalf("streams_rejected = %d with no admission limit", rej)
			}
			// The per-shard depth gauges must exist (drained to zero by
			// now); the single inbox is shard 0.
			depths := make(map[string]float64)
			for _, g := range reg.GaugeSnapshots() {
				depths[g.Name] = g.Value
			}
			for i := 0; i < tc.rings; i++ {
				name := fmt.Sprintf("shard_%d_depth", i)
				if v, ok := depths[name]; !ok || v != 0 {
					t.Fatalf("%s = %g (registered: %v), want 0 after drain", name, v, ok)
				}
			}
		})
	}
}
