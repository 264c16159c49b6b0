package pipeline

import (
	"bytes"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/msgq"
)

// TestForwarderRelaysAndLoadBalances wires the full Figure-1 chain:
// one instrument-side sender → gateway forwarder → two HPC-side
// receivers. Every chunk must arrive intact (still compressed across
// the first hop) and the downstream load must be balanced.
func TestForwarderRelaysAndLoadBalances(t *testing.T) {
	topo := testTopo()
	const chunks, size = 24, 16 << 10

	// Two HPC consumers with decompression.
	type consumer struct {
		addr string
		done chan error
	}
	var mu sync.Mutex
	got := map[uint64][]byte{}
	perConsumer := make([]int, 2)
	total := 0
	stop := make(chan struct{})
	mk := func(idx int) *consumer {
		c := &consumer{done: make(chan error, 1)}
		ready := make(chan string, 1)
		go func() {
			c.done <- RunReceiver(ReceiverOptions{
				Cfg: receiverCfg(1, 1), Topo: topo, Bind: "127.0.0.1:0",
				Stop: stop, Ready: ready,
				Sink: func(ch Chunk) error {
					mu.Lock()
					defer mu.Unlock()
					data := make([]byte, len(ch.Data))
					copy(data, ch.Data)
					got[ch.Seq] = data
					perConsumer[idx]++
					total++
					if total == chunks {
						close(stop)
					}
					return nil
				},
			})
		}()
		c.addr = <-ready
		return c
	}
	c1, c2 := mk(0), mk(1)

	// The gateway forwarder.
	fwdReady := make(chan string, 1)
	fwdDone := make(chan error, 1)
	go func() {
		fwdDone <- RunForwarder(ForwarderOptions{
			Cfg:           receiverCfg(2, 0),
			Topo:          topo,
			Bind:          "127.0.0.1:0",
			Downstream:    []string{c1.addr, c2.addr},
			MinDownstream: 2,
			Expect:        chunks,
			Ready:         fwdReady,
		})
	}()
	gwAddr := <-fwdReady

	// The instrument-side sender, compressing.
	if err := RunSender(SenderOptions{
		Cfg: senderCfg(2, 2), Topo: topo, Peers: []string{gwAddr},
		Source: chunkSource(chunks, size),
	}); err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	if err := <-fwdDone; err != nil {
		t.Fatalf("RunForwarder: %v", err)
	}
	if err := <-c1.done; err != nil {
		t.Fatalf("consumer 1: %v", err)
	}
	if err := <-c2.done; err != nil {
		t.Fatalf("consumer 2: %v", err)
	}

	if len(got) != chunks {
		t.Fatalf("delivered %d unique chunks, want %d", len(got), chunks)
	}
	src := chunkSource(chunks, size)
	for i := 0; i < chunks; i++ {
		want := src()
		if !bytes.Equal(got[uint64(i)], want) {
			t.Fatalf("chunk %d corrupted across the gateway hop", i)
		}
	}
	// Load balancing: both consumers carried a meaningful share.
	if perConsumer[0] < chunks/4 || perConsumer[1] < chunks/4 {
		t.Fatalf("lopsided downstream distribution: %v", perConsumer)
	}
}

func TestForwarderValidation(t *testing.T) {
	topo := testTopo()
	base := ForwarderOptions{
		Cfg: receiverCfg(1, 0), Topo: topo, Bind: "127.0.0.1:0",
		Downstream: []string{"127.0.0.1:1"}, Expect: 1,
	}

	noDownstream := base
	noDownstream.Downstream = nil
	if err := RunForwarder(noDownstream); err == nil {
		t.Error("accepted forwarder without downstream peers")
	}

	badRole := base
	badRole.Cfg = senderCfg(0, 1)
	if err := RunForwarder(badRole); err == nil {
		t.Error("accepted sender config")
	}

	noExpect := base
	noExpect.Expect = 0
	if err := RunForwarder(noExpect); err == nil {
		t.Error("accepted forwarder without Expect or Stop")
	}

	badMin := base
	badMin.MinDownstream = 5
	if err := RunForwarder(badMin); err == nil {
		t.Error("accepted MinDownstream above peer count")
	}
}

func TestForwarderRejectsMalformedUpstream(t *testing.T) {
	topo := testTopo()
	// Downstream that just exists.
	stop := make(chan struct{})
	defer close(stop)
	dsReady := make(chan string, 1)
	go RunReceiver(ReceiverOptions{
		Cfg: receiverCfg(1, 0), Topo: topo, Bind: "127.0.0.1:0",
		Stop: stop, Ready: dsReady,
	})
	dsAddr := <-dsReady

	fwdReady := make(chan string, 1)
	fwdDone := make(chan error, 1)
	go func() {
		fwdDone <- RunForwarder(ForwarderOptions{
			Cfg: receiverCfg(1, 0), Topo: topo, Bind: "127.0.0.1:0",
			Downstream: []string{dsAddr}, Expect: 1, Ready: fwdReady,
		})
	}()
	gwAddr := <-fwdReady

	push := newTestPush(t, gwAddr)
	if err := push.Send(testMessage("only-one-part")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := <-fwdDone; err == nil {
		t.Fatal("forwarder accepted a malformed message")
	}
}

// TestForwarderTeardownInvariant: whatever ends the run, RunForwarder
// returns promptly, every goroutine it started is gone — no Stop or
// Peers watcher, health monitor or downstream dialer left behind — and
// every chunk intake accepted is accounted for: forwarded or counted in
// relay_dropped. Every case sets Stop and Peers and neither is closed
// unless the case says so, which is how a relay under a supervisor runs.
// The Stop cases pin Stop's semantics: intake closes first, chunks
// already accepted are relayed while a downstream is live, and Stop
// never waits on a dead downstream.
func TestForwarderTeardownInvariant(t *testing.T) {
	const (
		streams   = 3
		perStream = 64
		horizon   = 200 * time.Millisecond
	)
	payload := []byte(strings.Repeat("z", 1024))
	frame := func(_ uint32, seq uint64) msgq.Message { return fwdFrame(seq, payload) }
	malformed := func(uint32, uint64) msgq.Message { return testMessage("only-one-part") }
	cases := []struct {
		name   string
		msg    func(uint32, uint64) msgq.Message
		expect int
		stopAt int  // close Stop once downstream has this many chunks
		killAt int  // stop the only downstream once it has this many chunks
		dead   bool // downstream address with no listener
		// noFloor runs with MinDownstream 0, so the relay takes chunks
		// with no live downstream; stopIntake closes Stop once intake has
		// taken this many.
		noFloor    bool
		stopIntake int
		// drains: the downstream is live at exit, so intake's chunk in
		// hand is the only one the relay may drop.
		drains  bool
		wantErr bool
	}{
		{name: "Expect reached", msg: frame, expect: 24, drains: true},
		{name: "Stop closed", msg: frame, stopAt: 24, drains: true},
		{name: "Stop closed while every downstream is dead", msg: frame, dead: true, noFloor: true, stopIntake: 8},
		{name: "below MinDownstream mid-stream", msg: frame, killAt: 8, wantErr: true},
		{name: "MinDownstream never met", msg: frame, dead: true, wantErr: true},
		{name: "malformed upstream", msg: malformed, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := goruntime.NumGoroutine()
			ds := startCountingReceiver(t)
			dsAddr := ds.addr
			if tc.dead {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				dsAddr = ln.Addr().String()
				ln.Close()
			}
			floor := 1
			if tc.noFloor {
				floor = 0
			}
			reg := metrics.NewRegistry()
			stop := make(chan struct{})
			peers := make(chan PeerChange)
			ready := make(chan string, 1)
			done := make(chan error, 1)
			go func() {
				done <- RunForwarder(ForwarderOptions{
					Cfg: receiverCfg(1, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
					Downstream:    []string{dsAddr},
					MinDownstream: floor,
					PeerHorizon:   horizon,
					Peers:         peers,
					Expect:        tc.expect,
					Stop:          stop,
					Metrics:       reg,
					Ready:         ready,
				})
			}()
			stopSenders := pushStreams(<-ready, streams, perStream, tc.msg)
			switch {
			case tc.stopAt > 0:
				waitCond(t, "chunks downstream", func() bool { return ds.n() >= tc.stopAt })
				close(stop)
			case tc.killAt > 0:
				waitCond(t, "chunks downstream", func() bool { return ds.n() >= tc.killAt })
				close(ds.stop)
			case tc.stopIntake > 0:
				// Well inside the horizon, so Stop, not the floor, ends the run.
				waitCond(t, "chunks taken in", func() bool { return reg.Meter("intake").Items() >= int64(tc.stopIntake) })
				close(stop)
			}
			select {
			case err := <-done:
				if (err != nil) != tc.wantErr {
					t.Errorf("RunForwarder = %v, want error: %v", err, tc.wantErr)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("RunForwarder did not return within 2s of its exit cause")
			}
			stopSenders()
			if tc.killAt == 0 {
				close(ds.stop)
			}
			<-ds.done

			in := reg.Meter("intake").Items()
			out := reg.Meter("forward").Items()
			dropped := reg.Counter(CtrRelayDropped).Value()
			if in != out+dropped {
				t.Errorf("intake %d chunks, forwarded %d + relay_dropped %d", in, out, dropped)
			}
			if tc.drains && dropped > 1 {
				t.Errorf("relay_dropped = %d with a live downstream, want <= 1 (intake's chunk in hand)", dropped)
			}

			deadline := time.Now().Add(2 * time.Second)
			for goruntime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, %d before the run:\n%s", goruntime.NumGoroutine(), baseline,
						buf[:goruntime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
