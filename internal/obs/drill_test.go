package obs_test

// Acceptance drills for the self-diagnosis engine: starve a known stage
// and check the verdict names it. These live in an external test
// package because they drive the real pipeline and the simulation
// harnesses, which sit above internal/obs in the import graph.

import (
	"sync"
	"testing"

	"numastream/internal/bufpool"
	"numastream/internal/experiments"
	"numastream/internal/faults"
	"numastream/internal/metrics"
	"numastream/internal/numa"
	"numastream/internal/obs"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
	"numastream/internal/tomo"
)

// TestCompressStarvedVerdict runs a real loopback stream with a single
// compression worker behind a tiny queue, fed tomography data that LZ4
// has real work on — compression is the engineered bottleneck — and
// checks the window covering the run says compress-bound.
//
// It runs two passes over one registry, and only the second is
// measured. Each pass registers fresh queues under the same gauge
// names, so the window's diff base is taken either inside the measured
// pass (against that pass's own queues) or between the passes (against
// the first pass's final totals, which the diff must read as a reset
// whether the second pass's totals end below them or above).
func TestCompressStarvedVerdict(t *testing.T) {
	t.Run("base_inside_pass", func(t *testing.T) { compressStarved(t, false) })
	t.Run("base_between_passes", func(t *testing.T) { compressStarved(t, true) })
}

func compressStarved(t *testing.T, baseBetween bool) {
	reg := metrics.NewRegistry()
	eng := obs.NewEngine(reg, obs.Options{Workers: map[string]int{"compress": 1, "send": 3}})

	topo, _ := numa.Discover()
	// Enough chunks that one scheduling hiccup does not decide the
	// window's shares: a pass of 24 lasted about 20 ms.
	const chunks, size = 192, 256 << 10
	cfg := tomo.DefaultProjectionConfig()
	cfg.Width, cfg.Height, cfg.Seed = 1024, 512, 1
	payload := tomo.Projection(tomo.RandomPhantom(1, 60), 0, cfg)[:size]

	sCfg := runtime.NodeConfig{Node: "starved-src", Role: runtime.Sender,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Compress, Count: 1, Placement: runtime.OS()},
			{Type: runtime.Send, Count: 3, Placement: runtime.OS()},
		}}
	rCfg := runtime.NodeConfig{Node: "starved-gw", Role: runtime.Receiver,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Receive, Count: 2, Placement: runtime.OS()},
			{Type: runtime.Decompress, Count: 4, Placement: runtime.OS()},
		}}

	pool := bufpool.New(1)
	// stream runs one pass; seed, when set, is called at the pass's first
	// Source call, once the sender has registered its queue gauges. The
	// receiver registers decq after it reports Ready, so that one may
	// come after the seed: the diff reads it as a new queue.
	stream := func(seed func()) {
		ready := make(chan string, 1)
		recvErr := make(chan error, 1)
		go func() {
			recvErr <- pipeline.RunReceiver(pipeline.ReceiverOptions{
				Cfg: rCfg, Topo: topo, Bind: "127.0.0.1:0",
				Expect: chunks, Ready: ready, Metrics: reg, BufPool: pool,
				Sink: func(pipeline.Chunk) error { return nil },
				// A decompress worker takes about a third of the
				// compress worker's time per chunk, on the same cores.
				// With the default 16-slot queues a scheduling hiccup
				// on a busy host could block the receive workers on
				// decq for a quarter of the window, which reads as
				// consumer-bound (2 of 80 runs beside a CPU hog on a
				// 2-vCPU VM); 64 slots absorb it.
				QueueCap: 64,
			})
		}()
		addr := <-ready

		var mu sync.Mutex
		sent := 0
		if err := pipeline.RunSender(pipeline.SenderOptions{
			Cfg: sCfg, Topo: topo, Peers: []string{addr}, Metrics: reg,
			QueueCap: 4, BufPool: pool,
			Source: func() []byte {
				mu.Lock()
				defer mu.Unlock()
				if sent >= chunks {
					return nil
				}
				if sent == 0 && seed != nil {
					seed()
				}
				sent++
				return payload
			},
		}); err != nil {
			t.Fatalf("sender: %v", err)
		}
		if err := <-recvErr; err != nil {
			t.Fatalf("receiver: %v", err)
		}
		if out := pool.Outstanding(); out != 0 {
			t.Fatalf("pool outstanding = %d after the run; a stage leaks leases", out)
		}
	}
	// The first pass fills the pool. A cold pool's first-touch misses
	// rightly read as pool-starved (under -race, where sync.Pool drops a
	// quarter of its Puts, they outweigh the hits), so only the second,
	// steady-state pass is inside the measured window.
	stream(nil)
	if baseBetween {
		eng.Tick()
		stream(nil)
	} else {
		stream(func() { eng.Tick() })
	}

	w := eng.Tick()
	if w == nil {
		t.Fatal("no window after second tick")
	}
	if w.Verdict != obs.VerdictCompressBound {
		t.Fatalf("verdict = %s, want compress-bound (evidence %v, queues %+v, stages %+v)",
			w.Verdict, w.Evidence, w.Queues, w.Stages)
	}
}

// TestWireBoundVerdict runs the degraded-link simulation with the wire
// capped at 2% for the whole run — the network is the engineered
// bottleneck — and checks the virtual-time self-diagnosis says
// wire-bound.
func TestWireBoundVerdict(t *testing.T) {
	res, err := experiments.DegradedSimWithSchedule(faults.LinkSchedule{
		{Start: 0, End: 30, Capacity: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("simulation produced no self-diagnosis windows")
	}
	if res.Dominant != obs.VerdictWireBound {
		t.Fatalf("dominant = %s, want wire-bound (regimes %+v)", res.Dominant, res.Regimes)
	}
	wire := 0
	for _, w := range res.Windows {
		if w.Verdict == obs.VerdictWireBound {
			wire++
		}
	}
	if wire < len(res.Windows)/2 {
		t.Fatalf("only %d/%d windows wire-bound", wire, len(res.Windows))
	}
}
