package msgq

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/metrics"
)

// peerLog records OnPeerDown callbacks for assertions.
type peerLog struct {
	mu    sync.Mutex
	downs []string
}

func (l *peerLog) down(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.downs = append(l.downs, addr)
}

func (l *peerLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.downs)
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

	// Killing the receiver is a real peer death: OnPeerDown must fire
	// (via the peer-death monitor) with the endpoint address.
	pull.Close()
	waitFor(t, "peer-down callback", func() bool { return log.count() >= 1 })
	log.mu.Lock()
	if log.downs[0] != addr {
		t.Fatalf("callback carried %q, want %q", log.downs[0], addr)
	}
	log.mu.Unlock()

	// The receiver comes back: the redialer reconnects the same
	// endpoint on its own.
	pull2, err := NewPull(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer pull2.Close()
	waitFor(t, "redial after rebind", func() bool {
		return push.Live() == 1 && reg.Counter(CtrRedials).Value() >= 1
	})
}

// TestPushOnResendFiresOnRetry: a message whose first write fails is
// retried on the next connection, and that retry is reported once —
// OnResend with the message, one msgq_resends count.
func TestPushOnResendFiresOnRetry(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()

	// Only the first connection is armed to fail its writes.
	first := make(chan *failingConn, 1)
	reg := metrics.NewRegistry()
	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	push.Counters = reg
	push.Dial = func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := &failingConn{Conn: conn}
		select {
		case first <- fc:
		default:
		}
		return fc, nil
	}
	var mu sync.Mutex
	var resent []Message
	push.OnResend = func(msg Message) {
		mu.Lock()
		resent = append(resent, msg)
		mu.Unlock()
	}
	defer push.Close()
	push.Connect(pull.Addr().String())
	if err := push.WaitLive(1); err != nil {
		t.Fatal(err)
	}
	(<-first).fail.Store(true) // handshake done: only the frame write fails
	if err := push.Send(Message{[]byte("retried")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m, err := pull.Recv(); err != nil || string(m[0]) != "retried" {
		t.Fatalf("Recv = %q, %v", m, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(resent) != 1 || string(resent[0][0]) != "retried" {
		t.Fatalf("OnResend saw %q, want the one retried message", resent)
	}
	if v := reg.Counter(CtrResends).Value(); v != 1 {
		t.Fatalf("msgq_resends = %d, want 1", v)
	}
}

// failingConn fails every write once fail is set.
type failingConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *failingConn) Write(b []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(b)
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
	if down := log.count(); down != 0 {
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
	if down := log.count(); down != 0 {
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
	if down := log.count(); down != 0 {
		t.Fatalf("Close fired %d OnPeerDown callbacks, want 0", down)
	}
}
