package msgq

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"numastream/internal/metrics"
)

func pair(t *testing.T) (*Push, *Pull) {
	t.Helper()
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewPull: %v", err)
	}
	t.Cleanup(func() { pull.Close() })
	push := NewPush()
	push.Connect(pull.Addr().String())
	t.Cleanup(func() { push.Close() })
	return push, pull
}

func TestSendRecvSingle(t *testing.T) {
	push, pull := pair(t)
	want := Message{[]byte("header"), []byte("payload")}
	if err := push.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := pull.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
		t.Fatalf("got %q", got)
	}
}

func TestSendRecvManyInOrder(t *testing.T) {
	push, pull := pair(t)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			push.Send(Message{[]byte(fmt.Sprintf("m%04d", i))})
		}
	}()
	for i := 0; i < n; i++ {
		msg, err := pull.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%04d", i); string(msg[0]) != want {
			t.Fatalf("message %d = %q, want %q (single-peer ordering)", i, msg[0], want)
		}
	}
}

func TestEmptyAndZeroPartMessages(t *testing.T) {
	push, pull := pair(t)
	if err := push.Send(Message{}); err != nil {
		t.Fatalf("Send empty: %v", err)
	}
	if err := push.Send(Message{{}}); err != nil {
		t.Fatalf("Send zero-length part: %v", err)
	}
	m1, err := pull.Recv()
	if err != nil || len(m1) != 0 {
		t.Fatalf("empty message: %v %v", m1, err)
	}
	m2, err := pull.Recv()
	if err != nil || len(m2) != 1 || len(m2[0]) != 0 {
		t.Fatalf("zero-part message: %v %v", m2, err)
	}
}

func TestLargePayload(t *testing.T) {
	push, pull := pair(t)
	big := bytes.Repeat([]byte{0xab}, 11059200) // one projection chunk
	if err := push.Send(Message{big}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := pull.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !bytes.Equal(got[0], big) {
		t.Fatal("large payload corrupted")
	}
}

func TestManyPushersFairQueue(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewPull: %v", err)
	}
	defer pull.Close()
	const pushers = 4
	const perPusher = 50
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			push := NewPush()
			defer push.Close()
			push.Connect(pull.Addr().String())
			for i := 0; i < perPusher; i++ {
				if err := push.Send(Message{[]byte{byte(p)}}); err != nil {
					t.Errorf("pusher %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	counts := map[byte]int{}
	for i := 0; i < pushers*perPusher; i++ {
		msg, err := pull.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		counts[msg[0][0]]++
	}
	wg.Wait()
	for p := byte(0); p < pushers; p++ {
		if counts[p] != perPusher {
			t.Fatalf("pusher %d delivered %d/%d", p, counts[p], perPusher)
		}
	}
}

func TestPushBlocksUntilConnected(t *testing.T) {
	// Bind a listener but delay the Pull: Connect to a not-yet-open
	// port, then open it; Send must succeed once the dialer gets
	// through.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // port now closed; dialer will retry

	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	defer push.Close()
	push.Connect(addr)

	done := make(chan error, 1)
	go func() { done <- push.Send(Message{[]byte("late")}) }()

	select {
	case err := <-done:
		t.Fatalf("Send returned %v before any peer existed", err)
	case <-time.After(30 * time.Millisecond):
	}

	pull, err := NewPull(addr)
	if err != nil {
		t.Fatalf("NewPull on %s: %v", addr, err)
	}
	defer pull.Close()

	if err := <-done; err != nil {
		t.Fatalf("Send after peer arrived: %v", err)
	}
	if msg, err := pull.Recv(); err != nil || string(msg[0]) != "late" {
		t.Fatalf("Recv = %q, %v", msg, err)
	}
}

func TestPushSendAfterClose(t *testing.T) {
	push := NewPush()
	push.Close()
	if err := push.Send(Message{[]byte("x")}); err != ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestPushCloseUnblocksSend(t *testing.T) {
	push := NewPush() // never connected
	done := make(chan error, 1)
	go func() { done <- push.Send(Message{[]byte("x")}) }()
	time.Sleep(10 * time.Millisecond)
	push.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("blocked Send = %v, want ErrClosed", err)
	}
}

func TestPullCloseUnblocksRecv(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := pull.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	pull.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("blocked Recv = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	push, pull := pair(t)
	if err := push.Close(); err != nil {
		t.Fatal(err)
	}
	if err := push.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pull.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pull.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRejectsOversize(t *testing.T) {
	push, _ := pair(t)
	tooManyParts := make(Message, MaxParts+1)
	for i := range tooManyParts {
		tooManyParts[i] = []byte{1}
	}
	if err := push.Send(tooManyParts); err == nil {
		t.Fatal("oversize part count accepted")
	}
}

func TestReadMessageRejectsCorruptHeaders(t *testing.T) {
	// A part-count beyond the limit must be rejected before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := readFrame(&buf, nil, 0); err == nil {
		t.Fatal("huge part count accepted")
	}
	// Likewise with the aux flag set, and an aux flag with no parts.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf, nil, 0); err == nil {
		t.Fatal("huge aux-flagged part count accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0x80})
	if _, err := readFrame(&buf, nil, 0); err == nil {
		t.Fatal("aux-flagged frame with no parts accepted")
	}
	// A part size beyond the limit likewise.
	buf.Reset()
	buf.Write([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf, nil, 0); err == nil {
		t.Fatal("huge part size accepted")
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(parts [][]byte) bool {
		if len(parts) > MaxParts {
			parts = parts[:MaxParts]
		}
		var buf bytes.Buffer
		if err := writeMessage(&buf, parts, nil); err != nil {
			return false
		}
		f, err := readFrame(&buf, nil, 0)
		if err != nil || f.Aux() != nil {
			return false
		}
		got := f.Msg()
		if len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPushReconnectAfterPeerRestart(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pull.Addr().String()
	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	defer push.Close()
	push.Connect(addr)

	if err := push.Send(Message{[]byte("one")}); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	if m, err := pull.Recv(); err != nil || string(m[0]) != "one" {
		t.Fatalf("first Recv: %q %v", m, err)
	}

	// Kill the receiver, bring a new one up on the same port, and
	// reconnect (the runtime restarts gateway processes this way).
	pull.Close()
	var pull2 *Pull
	for i := 0; i < 100; i++ {
		pull2, err = NewPull(addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer pull2.Close()
	// No second Connect: the endpoint's own maintain loop keeps
	// redialing and must find the new peer on its own.

	deadline := time.After(5 * time.Second)
	// A Send over the dying conn can land in its kernel buffer and
	// report success even though the frame is lost (TCP has no
	// delivery acks), so resend until the new peer observes a frame.
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
	got := make(chan Message, 1)
	go func() {
		if m, err := pull2.Recv(); err == nil {
			got <- m
		}
	}()
	select {
	case m := <-got:
		close(stop)
		<-sender
		if string(m[0]) != "two" {
			t.Fatalf("after restart got %q", m)
		}
	case <-deadline:
		close(stop)
		<-sender
		t.Fatal("no message delivered after peer restart")
	}
}

// TestSendErrorsWithinHorizon is the regression test for the unbounded
// block: kill the only Pull and assert Send fails with ErrNoPeers within
// the configured horizon instead of hanging forever.
func TestSendErrorsWithinHorizon(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	push := NewPush()
	push.RetryInterval = 10 * time.Millisecond
	push.SendHorizon = 300 * time.Millisecond
	push.Counters = reg
	defer push.Close()
	push.Connect(pull.Addr().String())

	if err := push.Send(Message{[]byte("alive")}); err != nil {
		t.Fatalf("Send with live peer: %v", err)
	}
	if _, err := pull.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	pull.Close()

	// A write into the freshly dead socket can still land in the TCP
	// buffer; keep sending until the failure surfaces. With the peer
	// gone for good, Send must error within the horizon, not block.
	var sendErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sendErr = push.Send(Message{[]byte("doomed")}); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("Send never errored after the only peer died")
	}
	if !errors.Is(sendErr, ErrNoPeers) {
		t.Fatalf("Send error = %v, want ErrNoPeers", sendErr)
	}
	if n := reg.CounterValue(CtrHorizonFails); n < 1 {
		t.Fatalf("horizon failures = %d, want >= 1", n)
	}
}

// TestAutoRedialAfterPullRestart restarts the Pull endpoint mid-stream
// and asserts the Push re-establishes on its own (no second Connect) and
// that every message accepted after the reconnection is delivered.
func TestAutoRedialAfterPullRestart(t *testing.T) {
	pull1, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pull1.Addr().String()
	reg := metrics.NewRegistry()
	push := NewPush()
	push.RetryInterval = 5 * time.Millisecond
	push.Counters = reg
	defer push.Close()
	push.Connect(addr)

	const phase1, phase2 = 10, 20
	for i := 0; i < phase1; i++ {
		if err := push.Send(Message{[]byte(fmt.Sprintf("a%02d", i))}); err != nil {
			t.Fatalf("phase-1 Send %d: %v", i, err)
		}
	}
	for i := 0; i < phase1; i++ {
		m, err := pull1.Recv()
		if err != nil {
			t.Fatalf("phase-1 Recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("a%02d", i); string(m[0]) != want {
			t.Fatalf("phase-1 message %d = %q, want %q", i, m[0], want)
		}
	}

	// Restart the endpoint on the same port.
	pull1.Close()
	var pull2 *Pull
	for i := 0; i < 200; i++ {
		pull2, err = NewPull(addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer pull2.Close()

	got := make(chan string, 64)
	go func() {
		for {
			m, err := pull2.Recv()
			if err != nil {
				return
			}
			got <- string(m[0])
		}
	}()

	// Sync phase: a write into the dying socket may be absorbed by TCP
	// before the failure surfaces, so probe until the redialed
	// connection demonstrably carries traffic.
	deadline := time.Now().Add(10 * time.Second)
	synced := false
	for !synced {
		if time.Now().After(deadline) {
			t.Fatal("push never re-established to the restarted pull")
		}
		if err := push.Send(Message{[]byte("sync")}); err != nil {
			t.Fatalf("sync Send: %v", err)
		}
		select {
		case m := <-got:
			if m == "sync" {
				synced = true
			}
		case <-time.After(50 * time.Millisecond):
		}
	}

	// Phase 2: everything accepted on the live connection must arrive,
	// in order.
	for i := 0; i < phase2; i++ {
		if err := push.Send(Message{[]byte(fmt.Sprintf("b%02d", i))}); err != nil {
			t.Fatalf("phase-2 Send %d: %v", i, err)
		}
	}
	next := 0
	for next < phase2 {
		select {
		case m := <-got:
			if m == "sync" {
				continue // stragglers from the sync phase
			}
			if want := fmt.Sprintf("b%02d", next); m != want {
				t.Fatalf("phase-2 message = %q, want %q", m, want)
			}
			next++
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of %d phase-2 messages", next, phase2)
		}
	}
	if n := reg.CounterValue(CtrRedials); n < 1 {
		t.Fatalf("redials = %d, want >= 1", n)
	}
}

func TestWaitLiveTimeout(t *testing.T) {
	push := NewPush()
	defer push.Close()
	push.Connect("127.0.0.1:1") // nothing listens there
	start := time.Now()
	err := push.WaitLiveTimeout(1, 100*time.Millisecond)
	if err == nil {
		t.Fatal("WaitLiveTimeout succeeded with no peer")
	}
	if !errors.Is(err, ErrNoPeers) {
		t.Fatalf("WaitLiveTimeout error = %v, want ErrNoPeers", err)
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > 5*time.Second {
		t.Fatalf("WaitLiveTimeout returned after %v", d)
	}
	if !strings.Contains(err.Error(), "100ms") {
		t.Fatalf("error does not mention the timeout: %v", err)
	}
}

func TestWaitLive(t *testing.T) {
	pull1, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull1.Close()
	pull2, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull2.Close()

	push := NewPush()
	defer push.Close()
	push.Connect(pull1.Addr().String())
	push.Connect(pull2.Addr().String())
	if err := push.WaitLive(2); err != nil {
		t.Fatalf("WaitLive: %v", err)
	}
	if n := push.Live(); n != 2 {
		t.Fatalf("Live = %d, want 2", n)
	}
}

func TestWaitLiveUnblocksOnClose(t *testing.T) {
	push := NewPush()
	done := make(chan error, 1)
	go func() { done <- push.WaitLive(1) }()
	time.Sleep(5 * time.Millisecond)
	push.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("WaitLive after Close = %v, want ErrClosed", err)
	}
}
