package pipeline

import (
	"hash/crc32"
	"strings"
	"sync"
	"testing"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/msgq"
)

// fwdFrame builds a valid relay frame (header + payload) the way a
// sender's send worker would, so tests can drive a forwarder's upstream
// one chunk at a time.
func fwdFrame(seq uint64, payload []byte) msgq.Message {
	c := Chunk{Seq: seq, Stream: 0, RawLen: len(payload)}
	return msgq.Message{encodeHeader(c, crc32.Checksum(payload, crcTable)), payload}
}

// countingReceiver runs an open-ended receiver whose sink counts
// deliveries; stop it via the returned channel.
type countingReceiver struct {
	addr  string
	stop  chan struct{}
	done  chan error
	mu    sync.Mutex
	count int
}

func (r *countingReceiver) n() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

func startCountingReceiver(t *testing.T) *countingReceiver {
	t.Helper()
	r := &countingReceiver{stop: make(chan struct{}), done: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() {
		r.done <- RunReceiver(ReceiverOptions{
			Cfg: receiverCfg(1, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
			Stop: r.stop, Ready: ready,
			Sink: func(Chunk) error {
				r.mu.Lock()
				r.count++
				r.mu.Unlock()
				return nil
			},
		})
	}()
	r.addr = <-ready
	return r
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestForwarderSurvivesDownstreamDeath is the regression for the old
// fatal-egress behaviour: killing one of two downstreams mid-relay must
// not abort the forwarder — chunks keep flowing to the survivor and the
// death is counted.
func TestForwarderSurvivesDownstreamDeath(t *testing.T) {
	r1 := startCountingReceiver(t)
	r2 := startCountingReceiver(t)

	const chunks = 40
	reg := metrics.NewRegistry()
	fwdReady := make(chan string, 1)
	fwdDone := make(chan error, 1)
	go func() {
		fwdDone <- RunForwarder(ForwarderOptions{
			Cfg: receiverCfg(2, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
			Downstream:    []string{r1.addr, r2.addr},
			MinDownstream: 1, // survival floor: one live lane is enough
			PeerHorizon:   2 * time.Second,
			Expect:        chunks,
			Metrics:       reg,
			Ready:         fwdReady,
		})
	}()
	gwAddr := <-fwdReady

	push := newTestPush(t, gwAddr)
	payload := []byte(strings.Repeat("x", 1024))
	seq := uint64(0)
	send := func() {
		t.Helper()
		if err := push.Send(fwdFrame(seq, payload)); err != nil {
			t.Fatalf("Send: %v", err)
		}
		seq++
	}
	// Warm both lanes, then kill receiver 1 mid-stream. The forwarder
	// starts once one lane is live, and a lane still dialing gets none of
	// the first chunks, so keep sending until both have carried traffic.
	for seq < 8 {
		send()
	}
	waitCond(t, "both lanes carrying traffic", func() bool {
		if r1.n() > 0 && r2.n() > 0 {
			return true
		}
		send()
		time.Sleep(5 * time.Millisecond)
		return false
	})
	warm := seq
	close(r1.stop)
	if err := <-r1.done; err != nil {
		t.Fatalf("receiver 1: %v", err)
	}
	for ; seq < chunks; seq++ {
		if err := push.Send(fwdFrame(seq, payload)); err != nil {
			t.Fatalf("Send after death: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	// The regression: the forwarder must complete, not abort on the
	// first failed send.
	if err := <-fwdDone; err != nil {
		t.Fatalf("forwarder aborted on a single downstream death: %v", err)
	}
	if v := reg.Counter(CtrPeerDeaths).Value(); v < 1 {
		t.Fatalf("peer_deaths = %d, want >= 1", v)
	}
	// Everything sent after the death landed on the survivor.
	if n := r2.n(); n < chunks-int(warm) {
		t.Fatalf("survivor received %d chunks, want >= %d", n, chunks-int(warm))
	}
	close(r2.stop)
	if err := <-r2.done; err != nil {
		t.Fatalf("receiver 2: %v", err)
	}
}

// TestForwarderAbortsBelowMinDownstream: with a survival floor of 2,
// losing one of two lanes past the horizon is fatal — bounded, with a
// clear error, instead of a wedged relay.
func TestForwarderAbortsBelowMinDownstream(t *testing.T) {
	r1 := startCountingReceiver(t)
	r2 := startCountingReceiver(t)
	defer func() {
		close(r1.stop)
		<-r1.done
	}()

	reg := metrics.NewRegistry()
	fwdReady := make(chan string, 1)
	fwdDone := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		fwdDone <- RunForwarder(ForwarderOptions{
			Cfg: receiverCfg(1, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
			Downstream:    []string{r1.addr, r2.addr},
			MinDownstream: 2,
			PeerHorizon:   300 * time.Millisecond,
			Stop:          stop,
			Metrics:       reg,
			Ready:         fwdReady,
		})
	}()
	gwAddr := <-fwdReady

	push := newTestPush(t, gwAddr)
	payload := []byte(strings.Repeat("y", 512))
	for seq := uint64(0); seq < 4; seq++ {
		if err := push.Send(fwdFrame(seq, payload)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitCond(t, "traffic flowing", func() bool { return r1.n()+r2.n() >= 4 })
	close(r2.stop)
	<-r2.done

	// Keep feeding so the egress has chunks in hand while the lane
	// count sits below the floor.
	go func() {
		for seq := uint64(4); ; seq++ {
			if err := push.Send(fwdFrame(seq, payload)); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	select {
	case err := <-fwdDone:
		if err == nil {
			t.Fatal("forwarder returned nil below its survival floor")
		}
		if !strings.Contains(err.Error(), "live downstream lanes") {
			t.Fatalf("unexpected abort error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("forwarder did not abort below MinDownstream")
	}
}

// TestForwarderStopPathDrains covers the open-ended Stop path: chunks
// relay until Stop closes, and the forwarder exits cleanly with nothing
// dropped.
func TestForwarderStopPathDrains(t *testing.T) {
	r1 := startCountingReceiver(t)
	defer func() {
		close(r1.stop)
		<-r1.done
	}()

	reg := metrics.NewRegistry()
	stop := make(chan struct{})
	fwdReady := make(chan string, 1)
	fwdDone := make(chan error, 1)
	go func() {
		fwdDone <- RunForwarder(ForwarderOptions{
			Cfg: receiverCfg(1, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
			Downstream: []string{r1.addr},
			Stop:       stop,
			Metrics:    reg,
			Ready:      fwdReady,
		})
	}()
	gwAddr := <-fwdReady

	push := newTestPush(t, gwAddr)
	const chunks = 10
	payload := []byte("drainme")
	for seq := uint64(0); seq < chunks; seq++ {
		if err := push.Send(fwdFrame(seq, payload)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitCond(t, "all chunks relayed", func() bool { return r1.n() == chunks })
	close(stop)
	if err := <-fwdDone; err != nil {
		t.Fatalf("open-ended forwarder exited with: %v", err)
	}
	if v := reg.Counter(CtrRelayDropped).Value(); v != 0 {
		t.Fatalf("clean stop dropped %d relayed chunks", v)
	}
}

// TestForwarderAbandonedReadyDoesNotBlock is the regression for the
// unguarded Ready send: a caller that abandons the forwarder (Stop
// already fired) before reading Ready must not wedge it forever.
func TestForwarderAbandonedReadyDoesNotBlock(t *testing.T) {
	stop := make(chan struct{})
	close(stop)                // abandoned before it ever started
	ready := make(chan string) // unbuffered, and nobody will read it
	done := make(chan error, 1)
	go func() {
		done <- RunForwarder(ForwarderOptions{
			Cfg: receiverCfg(1, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
			Downstream:    []string{"127.0.0.1:1"}, // nothing listens there
			MinDownstream: 1,
			Stop:          stop,
			Ready:         ready,
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("abandoned forwarder returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarder blocked forever on the abandoned Ready channel")
	}
}

// TestForwarderDynamicPeers adds a downstream mid-stream, then removes
// the original one — membership changes while chunks flow, with the
// adds/removes counted and no spurious peer deaths.
func TestForwarderDynamicPeers(t *testing.T) {
	r1 := startCountingReceiver(t)
	r2 := startCountingReceiver(t)
	defer func() {
		close(r2.stop)
		<-r2.done
	}()

	reg := metrics.NewRegistry()
	stop := make(chan struct{})
	peers := make(chan PeerChange)
	fwdReady := make(chan string, 1)
	fwdDone := make(chan error, 1)
	go func() {
		fwdDone <- RunForwarder(ForwarderOptions{
			Cfg: receiverCfg(1, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
			Downstream:    []string{r1.addr},
			MinDownstream: 1,
			Stop:          stop,
			Peers:         peers,
			Metrics:       reg,
			Ready:         fwdReady,
		})
	}()
	gwAddr := <-fwdReady

	push := newTestPush(t, gwAddr)
	payload := []byte("dynamic")
	seq := uint64(0)
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := push.Send(fwdFrame(seq, payload)); err != nil {
				t.Fatalf("Send: %v", err)
			}
			seq++
		}
	}

	send(5)
	waitCond(t, "initial lane flowing", func() bool { return r1.n() == 5 })

	// Add the second downstream while streaming; keep sending until the
	// new lane carries traffic.
	peers <- PeerChange{Addr: r2.addr}
	waitCond(t, "new lane carrying traffic", func() bool {
		send(1)
		time.Sleep(5 * time.Millisecond)
		return r2.n() > 0
	})
	waitCond(t, "all chunks accounted", func() bool { return r1.n()+r2.n() == int(seq) })

	// Remove the original downstream: an administrative change, not a
	// death. Everything from here lands on the remaining lane.
	peers <- PeerChange{Addr: r1.addr, Remove: true}
	waitCond(t, "removal applied", func() bool { return reg.Counter(CtrPeersRemoved).Value() == 1 })
	close(r1.stop)
	if err := <-r1.done; err != nil {
		t.Fatalf("receiver 1: %v", err)
	}
	before := r2.n()
	send(10)
	waitCond(t, "post-removal chunks on surviving lane", func() bool { return r2.n() == before+10 })

	if v := reg.Counter(CtrPeersAdded).Value(); v != 1 {
		t.Fatalf("peers_added = %d, want 1", v)
	}
	if v := reg.Counter(CtrPeerDeaths).Value(); v != 0 {
		t.Fatalf("administrative remove counted %d peer deaths", v)
	}
	close(stop)
	if err := <-fwdDone; err != nil {
		t.Fatalf("forwarder: %v", err)
	}
}
