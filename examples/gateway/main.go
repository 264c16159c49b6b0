// Gateway: Figure 1 end to end, in one process over loopback. Two
// instrument-side senders compress and push projections into the
// upstream gateway, which — exactly as the figure describes —
// accumulates and load-balances the still-compressed chunks, forwarding
// them to two HPC-side consumers that decompress and verify.
//
//	instrument-1 ─┐                    ┌─► hpc-1 (decompress, verify)
//	              ├─► gateway (relay) ─┤
//	instrument-2 ─┘                    └─► hpc-2 (decompress, verify)
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"

	"numastream"
)

const (
	perSender = 16
	chunkSize = 128 << 10
	senders   = 2
	consumers = 2
	total     = senders * perSender
)

func main() {
	host, _ := numastream.DiscoverTopology()
	topoInfo := numastream.TopologyInfo{
		Sockets:        len(host.Nodes),
		CoresPerSocket: len(host.Nodes[0].CPUs),
		NICSocket:      len(host.Nodes) - 1,
	}
	rcvCfg, err := numastream.GenerateReceiverConfig("node", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 2})
	if err != nil {
		log.Fatal(err)
	}
	gwCfg, err := numastream.GenerateReceiverConfig("gateway", topoInfo,
		numastream.GenerateOptions{Streams: senders, SendThreads: 2})
	if err != nil {
		log.Fatal(err)
	}
	sndCfg, err := numastream.GenerateSenderConfig("instrument", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 2})
	if err != nil {
		log.Fatal(err)
	}

	// HPC consumers.
	var mu sync.Mutex
	perConsumer := make([]int, consumers)
	verified := 0
	stop := make(chan struct{})
	consumerDone := make([]chan error, consumers)
	consumerAddrs := make([]string, consumers)
	for i := 0; i < consumers; i++ {
		i := i
		ready := make(chan string, 1)
		consumerDone[i] = make(chan error, 1)
		go func() {
			consumerDone[i] <- numastream.StartReceiver(numastream.ReceiverOptions{
				Cfg: rcvCfg, Topo: host, Bind: "127.0.0.1:0",
				Stop: stop, Ready: ready,
				Sink: func(c numastream.Chunk) error {
					if !bytes.Equal(c.Data, payload(c.Stream, c.Seq)) {
						return fmt.Errorf("stream %d chunk %d corrupted", c.Stream, c.Seq)
					}
					mu.Lock()
					perConsumer[i]++
					verified++
					if verified == total {
						close(stop)
					}
					mu.Unlock()
					return nil
				},
			})
		}()
		consumerAddrs[i] = <-ready
	}

	// The gateway: accumulate + load-balance + forward, no decode.
	gwReady := make(chan string, 1)
	gwMetrics := numastream.NewRegistry()
	gwDone := make(chan error, 1)
	go func() {
		gwDone <- numastream.StartForwarder(numastream.ForwarderOptions{
			Cfg: gwCfg, Topo: host, Bind: "127.0.0.1:0",
			Downstream:    consumerAddrs,
			MinDownstream: consumers,
			Expect:        total,
			Metrics:       gwMetrics,
			Ready:         gwReady,
		})
	}()
	gwAddr := <-gwReady

	// Instrument-side senders, one stream each.
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			err := numastream.StartSender(numastream.SenderOptions{
				Cfg: sndCfg, Topo: host, Peers: []string{gwAddr},
				StreamID: uint32(s),
				Source: func() []byte {
					if i >= perSender {
						return nil
					}
					p := payload(uint32(s), uint64(i))
					i++
					return p
				},
			})
			if err != nil {
				log.Fatalf("sender %d: %v", s, err)
			}
		}()
	}
	wg.Wait()
	if err := <-gwDone; err != nil {
		log.Fatalf("gateway: %v", err)
	}
	for i := 0; i < consumers; i++ {
		if err := <-consumerDone[i]; err != nil {
			log.Fatalf("consumer %d: %v", i, err)
		}
	}

	fmt.Printf("%d chunks from %d instruments relayed through the gateway and verified\n",
		total, senders)
	fmt.Printf("downstream balance: hpc-1=%d hpc-2=%d chunks\n", perConsumer[0], perConsumer[1])
	fmt.Printf("gateway:\n%s", gwMetrics.String())
	for i, n := range perConsumer {
		if n == 0 {
			log.Fatalf("hpc-%d received no chunks: the gateway did not load-balance", i+1)
		}
	}
}

// payload builds a deterministic, compressible chunk unique to
// (stream, seq) so consumers can verify end-to-end integrity.
func payload(stream uint32, seq uint64) []byte {
	pat := []byte(fmt.Sprintf("instrument-%d frame %06d |", stream, seq))
	return bytes.Repeat(pat, chunkSize/len(pat)+1)[:chunkSize]
}
