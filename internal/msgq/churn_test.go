package msgq

import (
	"sync"
	"testing"
	"time"

	"numastream/internal/metrics"
)

// peerLog records OnPeerUp/OnPeerDown callbacks for assertions.
type peerLog struct {
	mu    sync.Mutex
	ups   []string
	downs []string
}

func (l *peerLog) up(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ups = append(l.ups, addr)
}

func (l *peerLog) down(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.downs = append(l.downs, addr)
}

func (l *peerLog) counts() (up, down int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ups), len(l.downs)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPushPeerCallbacksFireOnUpAndDeath(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pull.Addr().String()

	var log peerLog
	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	push.OnPeerUp = log.up
	push.OnPeerDown = log.down
	defer push.Close()
	push.Connect(addr)
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer-up callback", func() bool { up, _ := log.counts(); return up >= 1 })

	// Killing the receiver is a real peer death: OnPeerDown must fire
	// (via the peer-death monitor) with the endpoint address.
	pull.Close()
	waitFor(t, "peer-down callback", func() bool { _, down := log.counts(); return down >= 1 })
	log.mu.Lock()
	if log.ups[0] != addr || log.downs[0] != addr {
		t.Fatalf("callbacks carried %q/%q, want %q", log.ups[0], log.downs[0], addr)
	}
	log.mu.Unlock()

	// The receiver comes back: the redialer reconnects and OnPeerUp
	// fires again for the same endpoint.
	pull2, err := NewPull(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer pull2.Close()
	waitFor(t, "peer-up after rebind", func() bool { up, _ := log.counts(); return up >= 2 })
}

// TestPushFinishingPeerCloseIsNotADeath: a receiver that closes once the
// sender has said its last Sends are under way is ending the session,
// not dying — no OnPeerDown, no conn-drop count — while the same close
// without Finishing is still a death (the test above).
func TestPushFinishingPeerCloseIsNotADeath(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pull.Addr().String()

	var log peerLog
	reg := metrics.NewRegistry()
	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	push.OnPeerDown = log.down
	push.Counters = reg
	defer push.Close()
	push.Connect(addr)
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}

	push.Finishing()
	if err := push.Send(Message{[]byte("last")}); err != nil {
		t.Fatalf("Send after Finishing: %v", err)
	}
	if _, err := pull.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	pull.Close()
	waitFor(t, "connection teardown", func() bool { return push.Live() == 0 })
	// drop unlists the connection before it counts and calls back.
	time.Sleep(50 * time.Millisecond)
	if _, down := log.counts(); down != 0 {
		t.Fatalf("peer close after Finishing fired %d OnPeerDown callbacks, want 0", down)
	}
	if v := reg.Counter(CtrConnDrops).Value(); v != 0 {
		t.Fatalf("peer close after Finishing counted %d conn drops, want 0", v)
	}
}

func TestPushDisconnectIsNotADeath(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	addr := pull.Addr().String()

	var log peerLog
	reg := metrics.NewRegistry()
	push := NewPush()
	push.OnPeerDown = log.down
	push.Counters = reg
	defer push.Close()
	push.Connect(addr)
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}

	if !push.Disconnect(addr) {
		t.Fatal("Disconnect reported endpoint not maintained")
	}
	waitFor(t, "connection teardown", func() bool { return push.Live() == 0 })
	// Give any stray monitor/maintainer goroutine a beat to misbehave.
	time.Sleep(50 * time.Millisecond)
	if _, down := log.counts(); down != 0 {
		t.Fatalf("Disconnect fired %d OnPeerDown callbacks, want 0", down)
	}
	if v := reg.Counter(CtrConnDrops).Value(); v != 0 {
		t.Fatalf("Disconnect counted %d conn drops, want 0", v)
	}
	if v := reg.Counter(CtrDisconnects).Value(); v != 1 {
		t.Fatalf("disconnect counter = %d, want 1", v)
	}
	if push.Disconnect(addr) {
		t.Fatal("second Disconnect reported endpoint still maintained")
	}
	if push.Live() != 0 {
		t.Fatalf("disconnected endpoint still live: %d", push.Live())
	}
}

func TestPushReconnectAfterDisconnect(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	addr := pull.Addr().String()

	push := NewPush()
	defer push.Close()
	push.Connect(addr)
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}
	push.Disconnect(addr)
	waitFor(t, "teardown", func() bool { return push.Live() == 0 })

	// Dynamic re-add: the endpoint joins again and traffic flows.
	push.Connect(addr)
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}
	if err := push.Send(Message{[]byte("after rejoin")}); err != nil {
		t.Fatalf("Send after rejoin: %v", err)
	}
	msg, err := pull.Recv()
	if err != nil || string(msg[0]) != "after rejoin" {
		t.Fatalf("Recv = %v, %v", msg, err)
	}
}

func TestPushConnectSameAddrIsIdempotent(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	addr := pull.Addr().String()

	push := NewPush()
	defer push.Close()
	push.Connect(addr)
	push.Connect(addr) // no second maintainer, no second connection
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := push.Live(); n != 1 {
		t.Fatalf("double Connect produced %d connections, want 1", n)
	}
}

func TestPushCloseFiresNoDeathCallbacks(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()

	var log peerLog
	push := NewPush()
	push.OnPeerDown = log.down
	push.Connect(pull.Addr().String())
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}
	push.Close()
	time.Sleep(50 * time.Millisecond)
	if _, down := log.counts(); down != 0 {
		t.Fatalf("Close fired %d OnPeerDown callbacks, want 0", down)
	}
}
