package msgq

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/metrics"
)

// shortGuard lowers handshakeGuard for one test. Every Push and Pull the
// test starts must be closed before it returns (deferred), so no
// handshake is still reading the variable when the cleanup restores it.
func shortGuard(t *testing.T, d time.Duration) {
	t.Helper()
	old := handshakeGuard
	handshakeGuard = d
	t.Cleanup(func() { handshakeGuard = old })
}

// TestWireBytesPinned pins the bytes a connection carries: a hello
// banner and a tagged two-part frame. Deployed peers send and expect
// exactly these; a change here breaks interop with every one of them.
func TestWireBytesPinned(t *testing.T) {
	var hello bytes.Buffer
	if err := writeHello(&hello, "gw"); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(hello.Bytes()), "4e535148020002006777"; got != want {
		t.Errorf("hello = %s, want %s", got, want)
	}
	var frame bytes.Buffer
	pc := &pushConn{}
	if err := pc.writeVectored(&frame, Message{[]byte("hdr"), []byte("payload")}, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(frame.Bytes()),
		"0300008003000000686472070000007061796c6f616402000000aabb"; got != want {
		t.Errorf("tagged frame = %s, want %s", got, want)
	}
}

// legacyPull is a receiver of the original frame-only protocol: it
// accepts connections and counts the bytes that arrive, and never
// writes a hello.
type legacyPull struct {
	ln       net.Listener
	received atomic.Int64
}

func newLegacyPull(t *testing.T) *legacyPull {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lp := &legacyPull{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				n, _ := io.Copy(io.Discard, conn)
				lp.received.Add(n)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return lp
}

// TestInteropNewPushToLegacyPull: a receiver that never writes a hello
// never becomes a live peer. Each dial fails its handshake within
// handshakeGuard and counts as a dial error, no byte reaches the
// receiver, and a Send with a horizon fails with ErrNoPeers.
func TestInteropNewPushToLegacyPull(t *testing.T) {
	shortGuard(t, 100*time.Millisecond)
	lp := newLegacyPull(t)
	reg := metrics.NewRegistry()
	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	push.SendHorizon = 500 * time.Millisecond
	push.Counters = reg
	push.Connect(lp.ln.Addr().String())
	defer push.Close()

	err := push.SendTagged(Message{[]byte("hdr"), []byte("data")}, []byte("TRACECTX"))
	if !errors.Is(err, ErrNoPeers) {
		t.Fatalf("SendTagged to a silent receiver: err = %v, want ErrNoPeers", err)
	}
	if n := reg.CounterValue(CtrDialErrors); n < 1 {
		t.Errorf("%s = %d, want ≥ 1", CtrDialErrors, n)
	}
	if n := reg.CounterValue(CtrDials); n != 0 {
		t.Errorf("%s = %d, want 0", CtrDials, n)
	}
	push.Close()
	if n := lp.received.Load(); n != 0 {
		t.Errorf("legacy receiver got %d bytes", n)
	}
}

// slowAcceptListener hands each accepted connection to the Pull only
// after delay — a loaded gateway whose hello goes out late.
type slowAcceptListener struct {
	net.Listener
	delay time.Duration
}

func (l slowAcceptListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		time.Sleep(l.delay)
	}
	return c, err
}

// TestSlowHelloKeepsProtocol: a server hello that arrives 1.5 s after
// the dial is still a handshake. The tagged message arrives with its
// aux part, and the connection is never counted as a dropped or dead
// peer. (A dialer that gave up on the hello after 1 s used to fall back
// to raw frames, lose the aux part, and then read the late hello as a
// peer death.)
func TestSlowHelloKeepsProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pull := NewPullFromListener(slowAcceptListener{ln, 1500 * time.Millisecond})
	defer pull.Close()
	pull.SetLabel("slow-gw")

	reg := metrics.NewRegistry()
	var log peerLog
	push := NewPush()
	push.Counters = reg
	push.OnPeerDown = log.down
	push.Connect(pull.Addr().String())
	defer push.Close()

	if err := push.SendTagged(Message{[]byte("payload")}, []byte("TRACECTX")); err != nil {
		t.Fatalf("SendTagged: %v", err)
	}
	d, err := pull.RecvDelivery()
	if err != nil {
		t.Fatalf("RecvDelivery: %v", err)
	}
	if len(d.Msg) != 1 || string(d.Msg[0]) != "payload" {
		t.Errorf("msg = %q", d.Msg)
	}
	if string(d.Aux) != "TRACECTX" {
		t.Errorf("aux = %q, want the trace context", d.Aux)
	}
	if d.RTT <= 0 {
		t.Errorf("RTT = %v: the clock probe did not run", d.RTT)
	}
	push.Close()
	if n := reg.CounterValue(CtrConnDrops); n != 0 {
		t.Errorf("%s = %d, want 0", CtrConnDrops, n)
	}
	if downs := log.count(); downs != 0 {
		t.Errorf("OnPeerDown fired %d times", downs)
	}
}

// TestHandshakeNegotiatesV2 checks the full handshake: labels are
// exchanged, the clock probe yields a plausible loopback offset, and an
// aux part round-trips flagged — invisible to Recv, visible to
// RecvDelivery.
func TestHandshakeNegotiatesV2(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewPull: %v", err)
	}
	defer pull.Close()
	pull.SetLabel("gw")
	push := NewPush()
	push.Label = "src"
	push.Connect(pull.Addr().String())
	defer push.Close()

	if err := push.SendTagged(Message{[]byte("payload")}, []byte{0xAA, 0xBB}); err != nil {
		t.Fatalf("SendTagged: %v", err)
	}
	d, err := pull.RecvDelivery()
	if err != nil {
		t.Fatalf("RecvDelivery: %v", err)
	}
	if len(d.Msg) != 1 || string(d.Msg[0]) != "payload" {
		t.Fatalf("msg = %q (aux must not appear as a part)", d.Msg)
	}
	if string(d.Aux) != "\xaa\xbb" {
		t.Fatalf("aux = %x", d.Aux)
	}
	if d.Peer != "src" {
		t.Fatalf("Peer = %q, want hello label", d.Peer)
	}
	// Same process, same trace clock: the offset is pure probe error,
	// bounded by loopback RTT noise.
	if off := d.ClockOffset; off < -time.Second || off > time.Second {
		t.Fatalf("loopback clock offset %v implausible", off)
	}
	if d.RTT <= 0 {
		t.Fatalf("RTT = %v", d.RTT)
	}

	// An untagged Send on the same connection delivers nil aux.
	if err := push.Send(Message{[]byte("plain")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	d2, err := pull.RecvDelivery()
	if err != nil {
		t.Fatalf("RecvDelivery: %v", err)
	}
	if d2.Aux != nil {
		t.Fatalf("untagged frame delivered aux %q", d2.Aux)
	}
}

// TestHandshakeOffsetResampledOnRedial restarts the Pull and checks the
// replacement connection ran the clock probe again.
func TestHandshakeOffsetResampledOnRedial(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewPull: %v", err)
	}
	addr := pull.Addr().String()
	pull.SetLabel("gw")
	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	push.Connect(addr)
	defer push.Close()

	if err := push.Send(Message{[]byte("one")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if d, err := pull.RecvDelivery(); err != nil || d.RTT <= 0 {
		t.Fatalf("first delivery: err=%v rtt=%v", err, d.RTT)
	}
	pull.Close()

	pull2, err := NewPull(addr)
	if err != nil {
		t.Fatalf("NewPull (restart): %v", err)
	}
	defer pull2.Close()
	pull2.SetLabel("gw2")

	// A Send can "succeed" into the dead connection's kernel buffer
	// before the peer-death monitor notices the reset — TCP gives no
	// delivery guarantee without application acks — so keep resending
	// until the restarted Pull actually observes a frame.
	stop := make(chan struct{})
	sender := make(chan struct{})
	go func() {
		defer close(sender)
		for {
			select {
			case <-stop:
				return
			default:
			}
			push.Send(Message{[]byte("two")})
			time.Sleep(10 * time.Millisecond)
		}
	}()
	d, err := pull2.RecvDelivery()
	close(stop)
	<-sender
	if err != nil {
		t.Fatalf("RecvDelivery after redial: %v", err)
	}
	if d.RTT <= 0 {
		t.Fatal("redialed connection has no clock sample (handshake must re-run)")
	}
}

// hello builds a raw hello banner with arbitrary fields.
func hello(magic string, version, labelLen uint16) []byte {
	b := []byte(magic)
	b = append(b, byte(version), byte(version>>8), byte(labelLen), byte(labelLen>>8))
	return b
}

// TestHelloRejectsMalformed: a dialer that does not open with a hello of
// version ≥ 2, or does not finish its handshake within handshakeGuard,
// is hung up on and counted in ReadErrors. Nothing it sent is
// delivered, and its read loop exits.
func TestHelloRejectsMalformed(t *testing.T) {
	shortGuard(t, 300*time.Millisecond)
	frame := func() []byte {
		var b bytes.Buffer
		writeMessage(&b, Message{[]byte("old"), []byte("frame")}, nil)
		return b.Bytes()
	}
	cases := []struct {
		name  string
		open  []byte // what the dialer writes; nil writes nothing
		close bool   // then half-close the dialer's side
	}{
		{"bad-magic", hello("NSQX", 2, 0), false},
		{"version-0", hello("NSQH", 0, 0), false},
		{"version-1", hello("NSQH", 1, 0), false},
		// The server must hang up instead of reading 64 KiB of label.
		{"oversize-label", hello("NSQH", 2, 0xFFFF), false},
		{"truncated-banner", hello("NSQH", 2, 0)[:6], true},
		// The original frame-only sender: a frame, and never a read.
		{"frame-first", frame(), false},
		{"silent", nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pull, err := NewPull("127.0.0.1:0")
			if err != nil {
				t.Fatalf("NewPull: %v", err)
			}
			defer pull.Close()
			conn, err := net.Dial("tcp", pull.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if c.open != nil {
				if _, err := conn.Write(c.open); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			if c.close {
				conn.(*net.TCPConn).CloseWrite()
			}
			// The server's hello may be read or discarded by a reset;
			// either way the stream must end well before this deadline.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = io.Copy(io.Discard, conn)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept the connection open")
			}
			if n := pull.ReadErrors(); n != 1 {
				t.Errorf("ReadErrors = %d, want 1", n)
			}
			if n := pull.ShardDepth(0); n != 0 {
				t.Errorf("%d messages delivered", n)
			}
			pull.mu.Lock()
			open := len(pull.conns)
			pull.mu.Unlock()
			if open != 0 {
				t.Errorf("%d read loops still running after the hang-up", open)
			}
		})
	}
}
