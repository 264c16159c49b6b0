package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/queue"
)

// The elastic-pool property suite: pools must survive Grow/Shrink
// storms against a live pipeline without losing, duplicating, or
// reordering a single chunk, without leaking workers, and without
// wedging the abort paths. These run under -race in `make race`.

// parkedPool starts a pool whose workers block until retired or until
// stop closes — the unit-test stand-in for a stage parked on a queue.
func parkedPool(cfg PoolConfig, stop chan struct{}) *Pool {
	return StartPool(cfg, func(w *Worker) error {
		for {
			if w.Retiring() {
				return nil
			}
			select {
			case <-w.retire:
			case <-stop:
				return nil
			}
		}
	})
}

func waitLive(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Live() != want {
		if time.Now().After(deadline) {
			t.Fatalf("pool %s Live = %d, want %d (workers leaked or lost)", p.Name(), p.Live(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolElasticBookkeeping: Grow lands workers on the asked domain,
// Shrink retires newest-first from the asked domain, and the target
// view (Active, DomainWorkers) moves immediately while Live follows as
// workers actually exit.
func TestPoolElasticBookkeeping(t *testing.T) {
	stop := make(chan struct{})
	p := parkedPool(PoolConfig{Name: "elastic", Workers: 2}, stop)
	defer func() { close(stop); _ = p.Wait() }()

	if got := p.Grow(3, 1); got != 3 {
		t.Fatalf("Grow(3, 1) = %d, want 3", got)
	}
	waitLive(t, p, 5)
	if p.Active() != 5 {
		t.Fatalf("Active = %d, want 5", p.Active())
	}
	doms := p.DomainWorkers()
	if doms[1] != 3 {
		t.Fatalf("DomainWorkers = %v, want 3 on domain 1", doms)
	}

	// Shrink from domain 1: the target view drops instantly…
	if got := p.Shrink(2, 1); got != 2 {
		t.Fatalf("Shrink(2, 1) = %d, want 2", got)
	}
	if p.Active() != 3 {
		t.Fatalf("Active = %d right after Shrink, want 3", p.Active())
	}
	if d := p.DomainWorkers(); d[1] != 1 {
		t.Fatalf("DomainWorkers = %v after Shrink, want 1 on domain 1", d)
	}
	// …and the live count follows once the retired workers wake.
	waitLive(t, p, 3)
	if p.Sealed() {
		t.Fatal("pool sealed with live workers")
	}
}

// TestPoolShrinkFloor: a pool never retires its last active worker no
// matter how large the Shrink, so the stage always keeps a worker to
// drain its queue, however often it is grown and shrunk again.
func TestPoolShrinkFloor(t *testing.T) {
	stop := make(chan struct{})
	p := parkedPool(PoolConfig{Name: "floor", Workers: 3}, stop)
	defer func() { close(stop); _ = p.Wait() }()

	if got := p.Shrink(100, -1); got != 2 {
		t.Fatalf("Shrink(100) marked %d of 3, want 2 (floor 1)", got)
	}
	if got := p.Shrink(1, -1); got != 0 {
		t.Fatalf("Shrink past the floor marked %d, want 0", got)
	}
	waitLive(t, p, 1)

	if got := p.Grow(2, 0); got != 2 {
		t.Fatalf("Grow(2) on a pool at the floor added %d, want 2", got)
	}
	if got := p.Shrink(100, -1); got != 2 {
		t.Fatalf("Shrink(100) after Grow marked %d of 3, want 2 (floor 1)", got)
	}
	waitLive(t, p, 1)
}

// TestPoolSealAndOnDrained: OnDrained runs exactly once, before Wait
// returns, and a drained pool refuses to Grow (a controller holding a
// stale handle across runs must not resurrect it).
func TestPoolSealAndOnDrained(t *testing.T) {
	var drained atomic.Int32
	p := StartPool(PoolConfig{
		Name: "sealed", Workers: 3,
		OnDrained: func() { drained.Add(1) },
	}, func(w *Worker) error { return nil })
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if n := drained.Load(); n != 1 {
		t.Fatalf("OnDrained ran %d times, want exactly 1", n)
	}
	if !p.Sealed() {
		t.Fatal("pool not sealed after the last worker exited")
	}
	if got := p.Grow(2, 0); got != 0 {
		t.Fatalf("sealed pool grew %d workers", got)
	}
	if got := p.Shrink(1, -1); got != 0 {
		t.Fatalf("sealed pool marked %d retirements", got)
	}
	if n := drained.Load(); n != 1 {
		t.Fatalf("OnDrained re-ran after seal: %d", n)
	}
}

// TestControlsRegistersGauges: every stage the kit starts publishes its
// live-worker seconds and pinned-worker count, with or without Controls;
// the worker-seconds series accrues at the live count and follows a
// Grow, and the Actuator view answers for the attached pool.
func TestControlsRegistersGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewControls()
	n := &node{reg: reg, ctl: c}
	stop := make(chan struct{})
	start(n, stage{name: "compress", workers: 2}, nil, func(*Worker, *stageObserver) stageLoop[int, int] {
		return stageLoop[int, int]{next: func() (int, error) { <-stop; return 0, queue.ErrClosed }}
	})
	defer func() { close(stop); _ = n.wait() }()
	p := c.pool("compress")

	// accrues checks the series grows by live × the wall time between
	// two reads: at least live × the sleep, at most live × the bracket.
	accrues := func(live int) {
		t.Helper()
		waitLive(t, p, live)
		t0 := time.Now()
		a := gaugeValue(t, reg, "compress_worker_secs")
		time.Sleep(20 * time.Millisecond)
		b := gaugeValue(t, reg, "compress_worker_secs")
		bracket := time.Since(t0).Seconds()
		if d := b - a; d < float64(live)*0.020 || d > float64(live)*bracket {
			t.Fatalf("compress_worker_secs grew %.4f s over %.4f s with %d live workers", d, bracket, live)
		}
	}
	accrues(2)
	if got := c.Grow("compress", 2, 1); got != 2 {
		t.Fatalf("Controls.Grow = %d, want 2", got)
	}
	accrues(4)
	if got := gaugeValue(t, reg, "compress_workers_pinned"); got != float64(p.Pinned()) {
		t.Fatalf("compress_workers_pinned = %g, want %d", got, p.Pinned())
	}
	if c.Workers("compress") != 4 {
		t.Fatalf("Controls.Workers = %d, want 4", c.Workers("compress"))
	}
	if c.Workers("nosuch") != 0 || c.Grow("nosuch", 1, 0) != 0 || c.Shrink("nosuch", 1, 0) != 0 {
		t.Fatal("unknown stages must answer zero, not panic")
	}
	if got := c.Stages(); len(got) != 1 || got[0] != "compress" {
		t.Fatalf("Stages = %v", got)
	}
}

// TestElasticLoopbackStorm is the property test: a seeded Grow/Shrink
// storm hammers every stage of a live exactly-once loopback pipeline
// while chunks stream. The ledger must come out perfect — delivered ==
// sent, zero holes, zero duplicate drops — and every pool must drain
// to zero live workers with its gauge agreeing.
func TestElasticLoopbackStorm(t *testing.T) {
	const (
		senders     = 3
		perSender   = 60
		chunkSize   = 16 << 10
		totalChunks = senders * perSender
	)
	topo := testTopo()
	reg := metrics.NewRegistry()
	ledger := NewLedger(reg, 0)
	rCtl, sCtl := NewControls(), NewControls()

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
			Shards:      2,
			ExactlyOnce: true,
			Ledger:      ledger,
			Controls:    rCtl,
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

	// The storm: seeded random Grow/Shrink against every attached stage
	// while the stream runs. Bounded so the pipeline always keeps at
	// least the MinWorkers floor per stage.
	stormStop := make(chan struct{})
	var stormDone sync.WaitGroup
	storm := func(c *Controls, seed int64) {
		defer stormDone.Done()
		rng := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stormStop:
				return
			default:
			}
			stages := c.Stages()
			if len(stages) == 0 {
				time.Sleep(time.Millisecond)
				continue
			}
			stage := stages[rng.Intn(len(stages))]
			n := 1 + rng.Intn(2)
			dom := rng.Intn(2)
			if rng.Intn(2) == 0 {
				c.Grow(stage, n, dom)
			} else {
				c.Shrink(stage, n, -1)
			}
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}
	stormDone.Add(2)
	go storm(rCtl, 41)
	go storm(sCtl, 42)

	mkChunk := func(stream uint32, i int) []byte {
		pat := []byte(fmt.Sprintf("s%d-c%04d|", stream, i))
		return bytes.Repeat(pat, chunkSize/len(pat)+1)[:chunkSize]
	}
	errs := make(chan error, senders)
	for s := uint32(0); s < senders; s++ {
		go func(stream uint32) {
			i := 0
			var ctl *Controls
			if stream == 0 {
				ctl = sCtl // one sender shares its pools with the storm
			}
			errs <- RunSender(SenderOptions{
				Cfg:      senderCfg(2, 2),
				Topo:     topo,
				Peers:    []string{addr},
				StreamID: stream,
				Controls: ctl,
				Source: func() []byte {
					if i >= perSender {
						return nil
					}
					c := mkChunk(stream, i)
					i++
					time.Sleep(200 * time.Microsecond) // keep the run long enough to storm
					return c
				},
			})
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatalf("sender: %v", err)
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	close(stormStop)
	stormDone.Wait()

	// Exactly-once ledger: delivered == sent, no holes, no dup drops.
	if len(got) != totalChunks {
		t.Fatalf("delivered %d chunks, want %d", len(got), totalChunks)
	}
	for s := uint32(0); s < senders; s++ {
		if d := ledger.DeliveredStream(s); d != perSender {
			t.Fatalf("stream %d: ledger delivered %d, want %d", s, d, perSender)
		}
		if h := ledger.Holes(s); len(h) != 0 {
			t.Fatalf("stream %d: holes %v under the storm", s, h)
		}
		for i := 0; i < perSender; i++ {
			if !bytes.Equal(got[key{s, uint64(i)}], mkChunk(s, i)) {
				t.Fatalf("stream %d chunk %d corrupted under the storm", s, i)
			}
		}
	}
	if v := reg.CounterValue(CtrDupDrops); v != 0 {
		t.Fatalf("dup_drops = %d under the storm, want 0", v)
	}

	// No worker leaks: every pool drained, and its worker-seconds series
	// stopped accruing.
	for _, c := range []*Controls{rCtl, sCtl} {
		for _, stage := range c.Stages() {
			p := c.pool(stage)
			if p.Live() != 0 || !p.Sealed() {
				t.Fatalf("pool %s: live=%d sealed=%v after the run, want drained", stage, p.Live(), p.Sealed())
			}
		}
	}
	for _, stage := range rCtl.Stages() {
		a := gaugeValue(t, reg, stage+"_worker_secs")
		time.Sleep(5 * time.Millisecond)
		if b := gaugeValue(t, reg, stage+"_worker_secs"); a <= 0 || b != a {
			t.Fatalf("%s_worker_secs = %g then %g after drain, want one positive value", stage, a, b)
		}
	}
}

// TestRetireMidAbortDoesNotWedge extends the abort-unwedge family: a
// Shrink storm racing a decompress abort (MaxBadChunks) must never
// wedge RunReceiver — retiring workers park on the same queues the
// abort path closes, so a retire marked mid-chunk has to coexist with
// the teardown.
func TestRetireMidAbortDoesNotWedge(t *testing.T) {
	ctl := NewControls()
	addr, _, done := startReceiver(t, 1, 64, func(o *ReceiverOptions) {
		o.QueueCap = 1
		o.MaxBadChunks = 1
		o.Controls = ctl
	})
	push := msgq.NewPush()
	push.SendHorizon = 2 * time.Second
	t.Cleanup(func() { push.Close() })
	push.Connect(addr)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, stage := range []string{"receive", "decompress"} {
				if rng.Intn(2) == 0 {
					ctl.Grow(stage, 1, 0)
				} else {
					ctl.Shrink(stage, 1, -1)
				}
			}
		}
	}()

	for i := 0; i < 16; i++ {
		if err := push.Send(corruptLZ4Message()); err != nil {
			break // receiver already aborted and tore the socket down
		}
	}
	select {
	case err := <-done:
		close(stop)
		wg.Wait()
		if err == nil || !strings.Contains(err.Error(), "MaxBadChunks") {
			t.Fatalf("RunReceiver = %v, want MaxBadChunks abort", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunReceiver wedged: retire-mid-chunk deadlocked the abort path")
	}
}
