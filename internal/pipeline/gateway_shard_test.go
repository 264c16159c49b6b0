package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/metrics"
)

func gaugeValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, g := range reg.GaugeSnapshots() {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

func TestShardHashCoversAllShards(t *testing.T) {
	const shards = 8
	hit := make([]int, shards)
	for s := uint32(0); s < 1024; s++ {
		h := ShardHash(s, shards)
		if h < 0 || h >= shards {
			t.Fatalf("ShardHash(%d, %d) = %d out of range", s, shards, h)
		}
		hit[h]++
	}
	for i, n := range hit {
		// 1024 streams over 8 shards: a fair hash puts ~128 on each; an
		// order-of-magnitude band catches clustering without flaking.
		if n < 32 || n > 512 {
			t.Fatalf("shard %d got %d of 1024 streams; hash is clustering", i, n)
		}
	}
	// Adjacent stream ids must not all collapse onto one shard.
	if a, b, c := ShardHash(0, shards), ShardHash(1, shards), ShardHash(2, shards); a == b && b == c {
		t.Fatalf("adjacent streams 0,1,2 all hash to shard %d", a)
	}
}

func TestAdmissionStickyBothWays(t *testing.T) {
	reg := metrics.NewRegistry()
	a := NewAdmission(reg, 2)
	if !a.Admit(10) || !a.Admit(20) {
		t.Fatal("first two streams must admit")
	}
	if a.Admit(30) {
		t.Fatal("third stream must reject at MaxStreams 2")
	}
	// Sticky: the same ids keep their fate regardless of order.
	for i := 0; i < 3; i++ {
		if !a.Admit(20) || !a.Admit(10) {
			t.Fatal("admitted streams must stay admitted")
		}
		if a.Admit(30) {
			t.Fatal("rejected stream must stay rejected")
		}
	}
	if got := reg.CounterValue(CtrStreamsRejected); got != 1 {
		t.Fatalf("streams_rejected = %d, want 1", got)
	}
	if got := reg.CounterValue(CtrChunksRejected); got != 4 {
		t.Fatalf("chunks_rejected = %d, want 4", got)
	}
	if a.Admitted() != 2 || a.Rejected() != 1 {
		t.Fatalf("admitted/rejected = %d/%d, want 2/1", a.Admitted(), a.Rejected())
	}
	if got := gaugeValue(t, reg, GaugeStreamsAdmitted); got != 2 {
		t.Fatalf("streams_admitted gauge = %g, want 2", got)
	}

	unlimited := NewAdmission(metrics.NewRegistry(), 0)
	for s := uint32(0); s < 100; s++ {
		if !unlimited.Admit(s) {
			t.Fatalf("unlimited admission rejected stream %d", s)
		}
	}
}

// TestShardedGatewayAdmissionLimit: with MaxStreams 2 and 4 pushing
// senders, exactly two streams are admitted and delivered whole; the
// others are rejected at dispatch with the reject counters accounting
// for them, and the rejected senders complete without error (their
// frames drop at the gateway, they are not punished with a stall). The
// limit holds on the single inbox as on a sharded intake.
func TestShardedGatewayAdmissionLimit(t *testing.T) {
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) { testAdmissionLimit(t, shards) })
	}
}

func testAdmissionLimit(t *testing.T, shards int) {
	const (
		senders   = 4
		admitted  = 2
		perSender = 15
		chunkSize = 8 << 10
	)
	topo := testTopo()
	reg := metrics.NewRegistry()
	ledger := NewLedger(reg, 0)

	stop := make(chan struct{})
	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- RunReceiver(ReceiverOptions{
			Cfg:         receiverCfg(2, 2),
			Topo:        topo,
			Bind:        "127.0.0.1:0",
			Stop:        stop,
			Metrics:     reg,
			Ready:       ready,
			Shards:      shards,
			MaxStreams:  admitted,
			ExactlyOnce: true,
			Ledger:      ledger,
		})
	}()
	addr := <-ready

	payload := bytes.Repeat([]byte("admission-test-"), chunkSize/15+1)[:chunkSize]
	errs := make(chan error, senders)
	for s := uint32(0); s < senders; s++ {
		go func(stream uint32) {
			i := 0
			errs <- RunSender(SenderOptions{
				Cfg:      senderCfg(1, 1),
				Topo:     topo,
				Peers:    []string{addr},
				StreamID: stream,
				Source: func() []byte {
					if i >= perSender {
						return nil
					}
					i++
					return payload
				},
			})
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatalf("sender: %v", err)
		}
	}
	// Admitted streams drain completely; which two won the race is
	// arrival order, so assert on counts, not identities. Wait for the
	// rejected chunks too — the senders return once frames hit TCP, so
	// the gateway may still be reading (and rejecting) them.
	wantRejected := int64((senders - admitted) * perSender)
	deadline := time.Now().Add(10 * time.Second)
	for ledger.Delivered() < int64(admitted*perSender) ||
		reg.CounterValue(CtrChunksRejected) < wantRejected {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d (want %d), chunks_rejected %d (want %d)",
				ledger.Delivered(), admitted*perSender,
				reg.CounterValue(CtrChunksRejected), wantRejected)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver: %v", err)
	}

	if ids := ledger.Streams(); len(ids) != admitted {
		t.Fatalf("ledger saw %d streams %v, want %d", len(ids), ids, admitted)
	}
	for _, id := range ledger.Streams() {
		if d := ledger.DeliveredStream(id); d != perSender {
			t.Fatalf("admitted stream %d delivered %d, want %d", id, d, perSender)
		}
		if h := ledger.Holes(id); len(h) != 0 {
			t.Fatalf("admitted stream %d has %d holes", id, len(h))
		}
	}
	if rej := reg.CounterValue(CtrStreamsRejected); rej != senders-admitted {
		t.Fatalf("streams_rejected = %d, want %d", rej, senders-admitted)
	}
	if rej := reg.CounterValue(CtrChunksRejected); rej < int64(senders-admitted) {
		t.Fatalf("chunks_rejected = %d, want >= %d", rej, senders-admitted)
	}
}

// TestShardedGatewayFairBackpressure is the fair-backpressure property
// test: across seeded trials, one randomly chosen stream's consumer
// stalls after a random number of deliveries. Every other stream must
// still deliver its full share while the victim is stalled, and the
// victim's backlog must be absorbed by its own credit window — its
// transport connection blocks — not by the shared shard queues, which
// must drain to empty. An explicit StreamCredit puts the same gate in
// front of the single inbox.
func TestShardedGatewayFairBackpressure(t *testing.T) {
	for _, shards := range []int{0, 4} {
		for _, seed := range []int64{1, 2, 3} {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards%d/seed%d", shards, seed), func(t *testing.T) {
				testFairBackpressure(t, shards, seed)
			})
		}
	}
}

func testFairBackpressure(t *testing.T, shards int, seed int64) {
	const (
		streams   = 5
		perStream = 30
		chunkSize = 4 << 10
		credit    = 4
	)
	rng := rand.New(rand.NewSource(seed))
	victim := uint32(rng.Intn(streams))
	stallAfter := rng.Intn(5) // victim deliveries before the stall window opens

	topo := testTopo()
	reg := metrics.NewRegistry()
	ledger := NewLedger(reg, 0)

	unstall := make(chan struct{})
	var victimDelivered atomic.Int64
	stop := make(chan struct{})
	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- RunReceiver(ReceiverOptions{
			Cfg:          receiverCfg(2, 2),
			Topo:         topo,
			Bind:         "127.0.0.1:0",
			Stop:         stop,
			Metrics:      reg,
			Ready:        ready,
			Shards:       shards,
			StreamCredit: credit,
			ExactlyOnce:  true,
			Ledger:       ledger,
			Sink: func(c Chunk) error {
				if c.Stream == victim {
					if victimDelivered.Load() >= int64(stallAfter) {
						<-unstall // the stalled consumer
					}
					victimDelivered.Add(1)
				}
				return nil
			},
		})
	}()
	addr := <-ready

	payload := bytes.Repeat([]byte("fair-share-"), chunkSize/11+1)[:chunkSize]
	errs := make(chan error, streams)
	for s := uint32(0); s < streams; s++ {
		go func(stream uint32) {
			i := 0
			errs <- RunSender(SenderOptions{
				Cfg:      senderCfg(1, 1),
				Topo:     topo,
				Peers:    []string{addr},
				StreamID: stream,
				QueueCap: 4,
				Source: func() []byte {
					if i >= perStream {
						return nil
					}
					i++
					return payload
				},
			})
		}(s)
	}

	// Property 1: while the victim stalls, every other stream delivers
	// its complete share (its fair share of gateway service, with the
	// tolerance collapsed to "all of it" since the workload is finite).
	deadline := time.Now().Add(15 * time.Second)
	for {
		full := 0
		for s := uint32(0); s < streams; s++ {
			if s != victim && ledger.DeliveredStream(s) == perStream {
				full++
			}
		}
		if full == streams-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: healthy streams incomplete while stream %d stalls: %v",
				seed, victim, deliveredByStream(ledger, streams))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Property 2: the victim moved no further than its pre-stall
	// deliveries plus one chunk parked inside the stalled Sink call.
	if v := ledger.DeliveredStream(victim); v > int64(stallAfter)+1 {
		t.Fatalf("seed %d: stalled stream delivered %d, want <= %d", seed, v, stallAfter+1)
	}

	// Property 3: the backlog sits in the victim's credit window, not
	// the shared shard queues — shards drain empty and the victim's
	// read connection is the one blocked on credit.
	quiet := time.Now().Add(5 * time.Second)
	for {
		depths := 0.0
		for i := 0; i < shards || i == 0; i++ { // Shards 0 is one ring
			depths += gaugeValue(t, reg, fmt.Sprintf("shard_%d_depth", i))
		}
		blocked := gaugeValue(t, reg, GaugeCreditBlocked)
		if depths == 0 && blocked == 1 {
			break
		}
		if time.Now().After(quiet) {
			t.Fatalf("seed %d: shard depths %.0f (want 0), credit-blocked %.0f (want 1): backlog leaked into shared queues", seed, depths, blocked)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w := reg.CounterValue(CtrCreditWaits); w == 0 {
		t.Fatalf("seed %d: no credit waits recorded for a stalled stream", seed)
	}

	// Release the stall: the victim's backlog drains and the drill ends
	// exactly-once complete.
	close(unstall)
	for s := 0; s < streams; s++ {
		if err := <-errs; err != nil {
			t.Fatalf("seed %d: sender: %v", seed, err)
		}
	}
	deadline = time.Now().Add(15 * time.Second)
	for ledger.DeliveredStream(victim) < perStream {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: victim stuck at %d after unstall", seed, ledger.DeliveredStream(victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-recvDone; err != nil {
		t.Fatalf("seed %d: receiver: %v", seed, err)
	}
	for s := uint32(0); s < streams; s++ {
		if h := ledger.Holes(s); len(h) != 0 {
			t.Fatalf("seed %d: stream %d left %d holes", seed, s, len(h))
		}
	}
}

func deliveredByStream(l *Ledger, streams int) string {
	var b strings.Builder
	for s := uint32(0); s < uint32(streams); s++ {
		fmt.Fprintf(&b, "s%d=%d ", s, l.DeliveredStream(s))
	}
	return strings.TrimSpace(b.String())
}
