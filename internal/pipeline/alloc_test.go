package pipeline

import (
	gort "runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/adapt"
	"numastream/internal/bufpool"
	"numastream/internal/fleet"
	"numastream/internal/lz4"
	"numastream/internal/metrics"
	"numastream/internal/obs"
	"numastream/internal/runtime"
)

// allocLoopback runs one compress→send→receive→decompress loopback with
// preallocated source chunks (so the harness itself adds no per-chunk
// allocations) and returns the heap bytes allocated process-wide during
// the run. The sink verifies payloads without copying unless retain is
// set: then it also copies each payload into a slice that lives until
// the run is measured, a per-chunk allocation the slope must see. When
// reg is non-nil both sides share it (so an observer scraping it sees
// the live run); otherwise each side gets a private registry.
func allocLoopback(t *testing.T, reg *metrics.Registry, ctl *Controls, pool *bufpool.Pool, retain bool, chunks, size int) uint64 {
	t.Helper()
	topo := testTopo()
	sReg, rReg := reg, reg
	if reg == nil {
		sReg, rReg = metrics.NewRegistry(), metrics.NewRegistry()
	}

	// Pre-built compressible chunks: the Source closure hands out
	// stable, caller-owned buffers, so every allocation measured below
	// belongs to the pipeline, not the test.
	src := make([][]byte, chunks)
	for i := range src {
		c := make([]byte, size)
		for j := range c {
			c[j] = byte(j / 64)
		}
		src[i] = c
	}
	var srcIdx atomic.Int64

	var delivered atomic.Int64
	var kept [][]byte
	ready := make(chan string, 1)
	recvErr := make(chan error, 1)

	var before, after gort.MemStats
	gort.ReadMemStats(&before)

	go func() {
		recvErr <- RunReceiver(ReceiverOptions{
			Cfg:      receiverCfg(1, 1),
			Topo:     topo,
			Bind:     "127.0.0.1:0",
			Expect:   chunks,
			Metrics:  rReg,
			Ready:    ready,
			Controls: ctl,
			BufPool:  pool,
			Sink: func(c Chunk) error {
				if len(c.Data) != size || c.Data[100] != byte(100/64) {
					t.Errorf("chunk %d corrupt", c.Seq)
				}
				if retain {
					kept = append(kept, append([]byte(nil), c.Data...))
				}
				delivered.Add(1)
				return nil
			},
		})
	}()
	addr := <-ready
	if err := RunSender(SenderOptions{
		Cfg:      senderCfg(1, 1),
		Topo:     topo,
		Peers:    []string{addr},
		Metrics:  sReg,
		Controls: ctl,
		Source: func() []byte {
			i := srcIdx.Add(1) - 1
			if i >= int64(chunks) {
				return nil
			}
			return src[i]
		},
		BufPool: pool,
	}); err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("RunReceiver: %v", err)
	}
	if got := delivered.Load(); got != int64(chunks) {
		t.Fatalf("delivered %d of %d chunks", got, chunks)
	}

	gort.ReadMemStats(&after)
	gort.KeepAlive(kept)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSteadyStateZeroChunkAllocs is the PR's allocs/op assertion at the
// pipeline level: with pooling on, the steady-state compress → send →
// receive → decompress loop must not allocate per chunk. Absolute
// TotalAlloc per run includes fixed costs (sockets, goroutines,
// handshake), so the test measures the allocation SLOPE — the per-chunk
// marginal cost between a short and a long run — which cancels them.
// GC stays disabled throughout so sync.Pool contents survive and the
// measurement sees true steady state.
func TestSteadyStateZeroChunkAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; slope measurement is meaningless")
	}
	const (
		size      = 256 << 10
		shortRun  = 24
		longRun   = 96
		deltaRuns = longRun - shortRun
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// The snapshot-diff engine scrapes the live registry throughout: its
	// own per-tick allocations land on the observer goroutine, bounded
	// and duration-proportional, so the slope measurement below also
	// proves observation never leaks into the per-chunk cost.
	reg := metrics.NewRegistry()

	// The adaptive controller ticks on every window for the whole drill —
	// hysteresis, ViewOf, Decide — with caps equal to the configured pool
	// sizes, so every decision clips to nothing: a tuned pipeline pays
	// only the controller's read path, which must stay off the per-chunk
	// cost like everything else measured here.
	ctl := NewControls()
	pol := adapt.DefaultPolicy()
	pol.Hysteresis = 1
	pol.MaxWorkers = map[string]int{"compress": 1, "send": 1, "receive": 1, "decompress": 1}
	pol.Domains = []int{0, 1}
	ctrl := adapt.New(pol, ctl)
	eng := obs.NewEngine(reg, obs.Options{Interval: 25 * time.Millisecond, Node: "alloc-drill", OnWindow: ctrl.OnWindow})
	eng.Start()
	defer eng.Stop()

	// The fleet aggregator rides on top, pulling the engine's status at
	// its own cadence: the cluster control tower must also stay off the
	// chunk path. Its per-tick work lands on its own goroutine, so the
	// slope below proves aggregation never leaks into per-chunk cost.
	agg := fleet.New(fleet.Options{Fleet: "alloc-drill", Interval: 25 * time.Millisecond})
	agg.AddSource(fleet.EngineSource("alloc-drill", fleet.RoleGateway, eng))
	agg.Start()
	defer agg.Stop()

	pool := bufpool.New(1)
	// Pool growth is not per-chunk cost. How many payload buffers are
	// leased at once depends on scheduling — the sender's send queue or
	// the receiver's delivery lane (16 deep each) backing up for a moment
	// — and whichever run first reaches a new high-water mark pays for
	// it. Stock the two payload classes to that bound (one queue plus the
	// workers either side of it); it is well under the slope's 72 chunks,
	// so a stage that rents per chunk without returning still shows.
	const inFlight = 16 + 4
	for _, n := range []int{size, lz4.CompressBound(size)} {
		var stock [inFlight]*bufpool.Buf
		for i := range stock {
			stock[i] = pool.Get(0, n)
		}
		for _, b := range stock {
			b.Release()
		}
	}
	// Warm-up: populate the frame pool, connection scratch and every
	// lazily-built structure on both sides.
	allocLoopback(t, reg, ctl, pool, false, shortRun, size)

	pooledShort := allocLoopback(t, reg, ctl, pool, false, shortRun, size)
	pooledLong := allocLoopback(t, reg, ctl, pool, false, longRun, size)
	pooledSlope := int64(pooledLong) - int64(pooledShort)
	perChunk := pooledSlope / deltaRuns

	t.Logf("pooled: short=%d B, long=%d B, slope=%d B over %d chunks (%d B/chunk)",
		pooledShort, pooledLong, pooledSlope, deltaRuns, perChunk)

	// The zero-allocation assertion. A single stage allocating its
	// buffer per chunk would show ≥ size/2 here; tolerate small fixed
	// noise (scheduler, timer wheels) far below one chunk.
	if perChunk > 32<<10 {
		t.Errorf("pooled pipeline allocates %d B per chunk at steady state, want ~0 (< 32768)", perChunk)
	}
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("pool outstanding = %d after the pooled runs; a stage leaks leases", out)
	}

	// Harness sanity: the same measurement must catch a Sink that
	// copies every chunk it is handed — otherwise a silent measurement
	// bug could greenlight a regression.
	retainShort := allocLoopback(t, nil, nil, pool, true, shortRun, size)
	retainLong := allocLoopback(t, nil, nil, pool, true, longRun, size)
	retainPerChunk := (int64(retainLong) - int64(retainShort)) / deltaRuns
	t.Logf("copying sink: %d B/chunk", retainPerChunk)
	if retainPerChunk < size/2 {
		t.Errorf("copying sink shows only %d B per chunk; the slope harness is broken", retainPerChunk)
	}
}

// TestPipelinePoolLeakAccounting drives loopbacks through an explicit
// pool and asserts every lease came home: compressed and raw paths, and
// a receive-only topology (no decompress stage).
func TestPipelinePoolLeakAccounting(t *testing.T) {
	cases := []struct {
		name       string
		sCfg       runtime.NodeConfig
		rCfg       runtime.NodeConfig
		compressed bool
	}{
		{"full-pipeline", senderCfg(2, 2), receiverCfg(2, 2), true},
		{"no-compress-no-decompress", senderCfg(0, 2), receiverCfg(2, 0), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := bufpool.New(2)
			const chunks, size = 32, 32 << 10
			sReg, rReg := metrics.NewRegistry(), metrics.NewRegistry()

			topo := testTopo()
			ready := make(chan string, 1)
			recvErr := make(chan error, 1)
			var delivered atomic.Int64
			go func() {
				recvErr <- RunReceiver(ReceiverOptions{
					Cfg: tc.rCfg, Topo: topo, Bind: "127.0.0.1:0",
					Expect: chunks, Metrics: rReg, Ready: ready, BufPool: pool,
					Sink: func(c Chunk) error {
						if len(c.Data) != size {
							t.Errorf("chunk %d: %d bytes, want %d", c.Seq, len(c.Data), size)
						}
						delivered.Add(1)
						return nil
					},
				})
			}()
			addr := <-ready
			if err := RunSender(SenderOptions{
				Cfg: tc.sCfg, Topo: topo, Peers: []string{addr},
				Source: chunkSource(chunks, size), Metrics: sReg, BufPool: pool,
			}); err != nil {
				t.Fatalf("RunSender: %v", err)
			}
			if err := <-recvErr; err != nil {
				t.Fatalf("RunReceiver: %v", err)
			}
			if got := delivered.Load(); got != chunks {
				t.Fatalf("delivered %d of %d", got, chunks)
			}
			if out := pool.Outstanding(); out != 0 {
				t.Errorf("pool outstanding = %d after clean drain (stats %+v)", out, pool.Stats())
			}
			s := pool.Stats()
			if s.Hits+s.Misses+s.Steals == 0 {
				t.Errorf("pool saw no traffic; pooling is not wired through this path")
			}
			// The pool gauges must be visible on both registries.
			for name, reg := range map[string]*metrics.Registry{"sender": sReg, "receiver": rReg} {
				found := false
				for _, g := range reg.GaugeSnapshots() {
					if g.Name == bufpool.GaugeOutstanding {
						found = true
						if g.Value != 0 {
							t.Errorf("%s %s gauge = %v after drain", name, g.Name, g.Value)
						}
					}
				}
				if !found {
					t.Errorf("%s registry missing %s gauge", name, bufpool.GaugeOutstanding)
				}
			}
		})
	}
}

func TestPinSpecDomains(t *testing.T) {
	topo := testTopo() // 2 nodes × 2 CPUs: node 0 owns {0,1}, node 1 owns {2,3}

	if d := (PinSpec{}).DomainFor(3); d != 0 {
		t.Errorf("empty PinSpec DomainFor = %d, want 0", d)
	}

	dp := PinSpec{CPUSets: [][]int{{2, 3}}, Domains: []int{1}} // all of node 1
	if dp.DomainFor(0) != 1 || dp.DomainFor(5) != 1 {
		t.Errorf("node-wide pin domains = %v", dp.Domains)
	}

	sp := SplitPin(topo)
	if sp.DomainFor(0) != 0 || sp.DomainFor(1) != 1 || sp.DomainFor(2) != 0 {
		t.Errorf("SplitPin domains = %v", sp.Domains)
	}

	pinned, err := pinFor(topo, runtime.PinTo(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if pinned.DomainFor(0) != 1 || pinned.DomainFor(1) != 0 {
		t.Errorf("PinTo(1,0) domains = %v", pinned.Domains)
	}

	cores, err := pinFor(topo, runtime.PinToCores(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cores.DomainFor(0) != 1 || cores.DomainFor(1) != 0 {
		t.Errorf("PinToCores(3,0) domains = %v (core 3 is on node 1)", cores.Domains)
	}

	osPin, err := pinFor(topo, runtime.OS())
	if err != nil {
		t.Fatal(err)
	}
	if len(osPin.Domains) != 0 || osPin.DomainFor(7) != 0 {
		t.Errorf("OS placement domains = %v", osPin.Domains)
	}
}
