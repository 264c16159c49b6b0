// Benchmarks regenerating the paper's evaluation: one testing.B target
// per table/figure (reporting the headline Gbps as custom metrics), the
// mechanism ablations of DESIGN.md §6, and micro-benchmarks of the real
// substrates (LZ4 codec, queue, loopback pipeline). Run:
//
//	go test -bench=. -benchmem
package numastream_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"numastream"
	"numastream/internal/experiments"
	"numastream/internal/lz4"
	"numastream/internal/pipeline"
	"numastream/internal/queue"
	"numastream/internal/tomo"
)

// --- Figure/table reproductions ------------------------------------

// BenchmarkFig5Placement regenerates Figure 5's contended point: 32
// streaming processes per placement scenario.
func BenchmarkFig5Placement(b *testing.B) {
	for _, placement := range experiments.Fig5Placements {
		b.Run(placement, func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig5Streaming([]int{32})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Placement == placement {
						gbps = r.Gbps
					}
				}
			}
			b.ReportMetric(gbps, "Gbps")
		})
	}
}

// BenchmarkFig6CoreUsage regenerates Figures 6 and 7's per-core data.
func BenchmarkFig6CoreUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6CoreUsage(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7RemoteAccess measures the remote-traffic variant of the
// core grid (same runs, Figure 7's metric).
func BenchmarkFig7RemoteAccess(b *testing.B) {
	var remote float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6CoreUsage([]experiments.Fig6Config{
			{Label: "32P_16c_N0", Processes: 32, Cores: 16, Domain: 0},
		})
		if err != nil {
			b.Fatal(err)
		}
		remote = 0
		for _, cs := range res[0].CoreStats {
			remote += cs.RemoteBytes
		}
	}
	b.ReportMetric(remote/1e9, "remote-GB")
}

// BenchmarkFig8Compression regenerates Figure 8a (configuration A vs E
// at 32 threads, the "nearly halved" comparison).
func BenchmarkFig8Compression(b *testing.B) {
	var a32, e32 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8Compression([]int{32})
		ra, _ := experiments.CodecResultFor(res, "A", 32)
		re, _ := experiments.CodecResultFor(res, "E", 32)
		a32, e32 = ra.Gbps, re.Gbps
	}
	b.ReportMetric(a32, "A32-Gbps")
	b.ReportMetric(e32, "E32-Gbps")
}

// BenchmarkFig9Decompression regenerates Figure 9a's 16-thread point
// (split vs single-socket contention).
func BenchmarkFig9Decompression(b *testing.B) {
	var a16, e16 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9Decompression([]int{16})
		ra, _ := experiments.CodecResultFor(res, "A", 16)
		re, _ := experiments.CodecResultFor(res, "E", 16)
		a16, e16 = ra.Gbps, re.Gbps
	}
	b.ReportMetric(a16, "A16-Gbps")
	b.ReportMetric(e16, "E16-Gbps")
}

// BenchmarkFig11NetworkPlacement regenerates Figure 11's divergence
// point (3 thread pairs, configurations A vs B).
func BenchmarkFig11NetworkPlacement(b *testing.B) {
	var a3, b3 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11Network([]int{3})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			switch r.Config {
			case "A":
				a3 = r.Gbps
			case "B":
				b3 = r.Gbps
			}
		}
	}
	b.ReportMetric(a3, "A-Gbps")
	b.ReportMetric(b3, "B-Gbps")
}

// BenchmarkFig12EndToEnd regenerates Figure 12's headline cells: the 37
// Gbps baseline (A) and the tuned configuration (F/G at 8 threads,
// receiver on NUMA 1).
func BenchmarkFig12EndToEnd(b *testing.B) {
	var baseline, best float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12EndToEnd([]int{8})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Config == "A" && r.RecvDomain == 1 {
				baseline = r.E2EGbps
			}
			if r.Config == "F" && r.RecvDomain == 1 {
				best = r.E2EGbps
			}
		}
	}
	b.ReportMetric(baseline, "baseline-Gbps")
	b.ReportMetric(best, "tuned-Gbps")
	if baseline > 0 {
		b.ReportMetric(best/baseline, "speedup-x")
	}
}

// BenchmarkFig14MultiStream regenerates Figure 14: four concurrent
// streams, runtime placement vs the OS baseline.
func BenchmarkFig14MultiStream(b *testing.B) {
	for _, mode := range []experiments.Fig14Mode{experiments.ModeRuntime, experiments.ModeOS} {
		b.Run(string(mode), func(b *testing.B) {
			var net, e2e float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig14MultiStream(mode)
				if err != nil {
					b.Fatal(err)
				}
				net, e2e = res.TotalNet, res.TotalE2E
			}
			b.ReportMetric(net, "net-Gbps")
			b.ReportMetric(e2e, "e2e-Gbps")
		})
	}
}

// --- Mechanism ablations (DESIGN.md §6) -----------------------------

func BenchmarkAblationRemotePenalty(b *testing.B) {
	var r experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblateRemotePenalty()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With*100, "with-pct")
	b.ReportMetric(r.Without*100, "without-pct")
}

func BenchmarkAblationUncoreContention(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblateUncoreContention()
	}
	b.ReportMetric(r.With*100, "with-pct")
	b.ReportMetric(r.Without*100, "without-pct")
}

func BenchmarkAblationContextSwitchTax(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblateContextSwitchTax()
	}
	b.ReportMetric(r.With*100, "with-pct")
	b.ReportMetric(r.Without*100, "without-pct")
}

func BenchmarkAblationMigrationTax(b *testing.B) {
	var r experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblateMigrationTax()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With, "with-x")
	b.ReportMetric(r.Without, "without-x")
}

// --- Substrate micro-benchmarks -------------------------------------

// projFrame is one quarter-scale synthetic projection, shared across
// codec benches.
var projFrame = func() []byte {
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width /= 4
	cfg.Height /= 4
	return tomo.Projection(tomo.RandomPhantom(3, 60), 0.7, cfg)
}()

// BenchmarkLZ4Compress measures the real codec on projection data (the
// calibration anchor for hw.CompressRate).
func BenchmarkLZ4Compress(b *testing.B) {
	dst := make([]byte, lz4.CompressBound(len(projFrame)))
	b.SetBytes(int64(len(projFrame)))
	for i := 0; i < b.N; i++ {
		if _, err := lz4.CompressBlock(projFrame, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLZ4Decompress measures decode speed (the paper's ~3X
// asymmetry shows up here).
func BenchmarkLZ4Decompress(b *testing.B) {
	packed := lz4.Compress(projFrame)
	dst := make([]byte, len(projFrame))
	b.SetBytes(int64(len(projFrame)))
	for i := 0; i < b.N; i++ {
		if _, err := lz4.DecompressBlock(packed, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueThroughput measures the inter-stage queue under a
// producer/consumer pair.
func BenchmarkQueueThroughput(b *testing.B) {
	b.ReportAllocs()
	q := queue.New[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := q.Get(); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Put(i); err != nil {
			b.Fatal(err)
		}
	}
	q.Close()
	wg.Wait()
}

// BenchmarkLoopbackPipeline measures the real goroutine pipeline over
// loopback TCP with compression, end to end, through the process-wide
// buffer pool as in production.
func BenchmarkLoopbackPipeline(b *testing.B) {
	b.ReportAllocs()
	const chunkSize = 1 << 20
	chunk := bytes.Repeat([]byte("tomography pixels "), chunkSize/18+1)[:chunkSize]
	host := numastream.SyntheticTopology(1, 4)
	topoInfo := numastream.TopologyInfo{Sockets: 1, CoresPerSocket: 4, NICSocket: 0}
	rcvCfg, err := numastream.GenerateReceiverConfig("gw", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 2})
	if err != nil {
		b.Fatal(err)
	}
	sndCfg, err := numastream.GenerateSenderConfig("src", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 2})
	if err != nil {
		b.Fatal(err)
	}

	b.SetBytes(chunkSize)
	b.ResetTimer()

	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- numastream.StartReceiver(numastream.ReceiverOptions{
			Cfg: rcvCfg, Topo: host, Bind: "127.0.0.1:0",
			Expect: b.N, Ready: ready,
		})
	}()
	addr := <-ready
	sent := 0
	err = numastream.StartSender(numastream.SenderOptions{
		Cfg: sndCfg, Topo: host, Peers: []string{addr},
		Source: func() []byte {
			if sent >= b.N {
				return nil
			}
			sent++
			return chunk
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGatewayFanIn measures multi-sender fan-in at the gateway:
// eight concurrent senders into one receive ring with no credit gate
// ("single", Shards 0) versus four rings under the default per-stream
// credit ("sharded") — two settings of one receiver. Sharding removes
// head-of-line blocking between streams (the thousand-stream gateway's
// core claim); with healthy homogeneous senders the two should be
// comparable — sharding must not tax the fan-in it exists to protect.
func BenchmarkGatewayFanIn(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchFanIn(b, 0) })
	b.Run("sharded", func(b *testing.B) { benchFanIn(b, 4) })
}

func benchFanIn(b *testing.B, shards int) {
	b.ReportAllocs()
	const (
		senders   = 8
		chunkSize = 256 << 10
	)
	chunk := bytes.Repeat([]byte("fan-in payload "), chunkSize/15+1)[:chunkSize]
	host := numastream.SyntheticTopology(1, 4)
	topoInfo := numastream.TopologyInfo{Sockets: 1, CoresPerSocket: 4, NICSocket: 0}
	rcvCfg, err := numastream.GenerateReceiverConfig("gw", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 2})
	if err != nil {
		b.Fatal(err)
	}
	sndCfg, err := numastream.GenerateSenderConfig("src", topoInfo,
		numastream.GenerateOptions{Streams: 1, Compression: true, SendThreads: 1})
	if err != nil {
		b.Fatal(err)
	}

	per := b.N / senders
	total := 0
	counts := make([]int, senders)
	for s := range counts {
		counts[s] = per
		total += per
	}
	counts[0] += b.N - total

	b.SetBytes(chunkSize)
	b.ResetTimer()

	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- numastream.StartReceiver(numastream.ReceiverOptions{
			Cfg: rcvCfg, Topo: host, Bind: "127.0.0.1:0",
			Expect: b.N, Ready: ready, Shards: shards,
		})
	}()
	addr := <-ready
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			sent := 0
			errs <- numastream.StartSender(numastream.SenderOptions{
				Cfg: sndCfg, Topo: host, Peers: []string{addr}, StreamID: uint32(s),
				Source: func() []byte {
					if sent >= counts[s] {
						return nil
					}
					sent++
					return chunk
				},
			})
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	if err := <-recvDone; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkElasticPoolGrowShrink measures one full elastic churn cycle
// against a live pool: grow one worker onto the next domain, shrink it
// back, then wait for the retirement to land (Live back at baseline).
// This is the end-to-end latency the adaptive placement controller pays
// per resize step, including the lazy chunk-boundary handshake.
func BenchmarkElasticPoolGrowShrink(b *testing.B) {
	stop := make(chan struct{})
	pool := pipeline.StartPool(pipeline.PoolConfig{
		Name: "bench", Workers: 2,
	}, func(w *pipeline.Worker) error {
		for {
			if w.Retiring() {
				return nil
			}
			select {
			case <-stop:
				return nil
			default:
				runtime.Gosched()
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dom := i % 2
		if pool.Grow(1, dom) != 1 {
			b.Fatal("grow refused")
		}
		if pool.Shrink(1, dom) != 1 {
			b.Fatal("shrink refused")
		}
		for pool.Live() != 2 {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	close(stop)
	if err := pool.Wait(); err != nil {
		b.Fatal(err)
	}
}
