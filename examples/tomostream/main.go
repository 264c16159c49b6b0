// Tomostream: the paper's motivating workload end to end. Synthetic
// X-ray projections of a sphere phantom (the tomobank-spheres stand-in)
// are streamed straight from the generator through the compression
// pipeline over loopback TCP, decompressed at the gateway and verified
// bit-for-bit — with the achieved wire ratio (LZ4, of the bit-planes
// where the sender's bitshuffle filter pays) and stage throughputs
// reported.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"

	"numastream"
	"numastream/internal/pipeline"
	"numastream/internal/tomo"
)

const projections = 24

func main() {
	// A small-detector scan (1/8 scale keeps the example quick; pass
	// the full DefaultProjectionConfig for 11.06 MB chunks).
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width /= 8
	cfg.Height /= 8
	gen := tomo.NewGenerator(tomo.RandomPhantom(7, 60), cfg, projections)
	fmt.Printf("scan: %d projections of %dx%d uint16\n", projections, cfg.Width, cfg.Height)

	// Stream it.
	host, _ := numastream.DiscoverTopology()
	topoInfo := numastream.TopologyInfo{Sockets: len(host.Nodes),
		CoresPerSocket: len(host.Nodes[0].CPUs), NICSocket: len(host.Nodes) - 1}
	rcvCfg, err := numastream.GenerateReceiverConfig("gateway", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 2})
	if err != nil {
		log.Fatal(err)
	}
	sndCfg, err := numastream.GenerateSenderConfig("beamline", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 2})
	if err != nil {
		log.Fatal(err)
	}

	ready := make(chan string, 1)
	var mu sync.Mutex
	got := make(map[uint64][]byte)
	recvDone := make(chan error, 1)
	recvMetrics := numastream.NewRegistry()
	go func() {
		recvDone <- numastream.StartReceiver(numastream.ReceiverOptions{
			Cfg:     rcvCfg,
			Topo:    host,
			Bind:    "127.0.0.1:0",
			Expect:  projections,
			Ready:   ready,
			Metrics: recvMetrics,
			Sink: func(c numastream.Chunk) error {
				mu.Lock()
				defer mu.Unlock()
				data := make([]byte, len(c.Data))
				copy(data, c.Data)
				got[c.Seq] = data
				return nil
			},
		})
	}()

	addr := <-ready
	// The sender leaves a yielded buffer untouched, so the projections
	// it was handed are the reference the gateway's copies must match.
	var sent [][]byte
	sndMetrics := numastream.NewRegistry()
	err = numastream.StartSender(numastream.SenderOptions{
		Cfg:     sndCfg,
		Topo:    host,
		Peers:   []string{addr},
		Metrics: sndMetrics,
		Source: func() []byte {
			if len(sent) >= projections {
				return nil
			}
			p := gen.Next()
			sent = append(sent, p)
			return p
		},
	})
	if err != nil {
		log.Fatalf("sender: %v", err)
	}
	if err := <-recvDone; err != nil {
		log.Fatalf("receiver: %v", err)
	}

	// Verify every projection survived compression, transport and
	// decompression bit-for-bit.
	for i, want := range sent {
		if !bytes.Equal(got[uint64(i)], want) {
			log.Fatalf("projection %d corrupted in flight", i)
		}
	}
	fmt.Printf("all %d projections verified bit-for-bit\n", projections)

	var raw, wire int64
	for _, s := range sndMetrics.Snapshots() {
		switch s.Name {
		case "compress":
			raw = s.Bytes
		case "send":
			wire = s.Bytes
		}
	}
	if wire > 0 {
		fmt.Printf("wire ratio: %.2f:1, %d of %d chunks bitshuffled (paper reports ~2:1 for plain LZ4)\n",
			float64(raw)/float64(wire), sndMetrics.CounterValue(pipeline.CtrChunksBitshuffled), projections)
	}
	fmt.Printf("sender:\n%s", sndMetrics.String())
	fmt.Printf("receiver:\n%s", recvMetrics.String())
}
