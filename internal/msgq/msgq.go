// Package msgq is a minimal message-queue transport over TCP with the two
// socket personalities the runtime needs: PUSH (connect-side, round-robin
// distribution, automatic reconnect) and PULL (bind-side, fair-queued
// receive from many peers). It replaces the paper's use of ZeroMQ [7] for
// "a robust and high-performance messaging protocol": the runtime's
// pipeline needs exactly push/pull semantics with multipart messages.
//
// Every connection opens with a hello/clock-probe handshake (see
// handshake.go), then carries frames, little-endian:
//
//	message: partCount uint32 | parts...
//	part:    length uint32 | payload bytes
//
// Zero-part messages are valid (heartbeats). Part and message sizes are
// bounded to keep a malicious or corrupted peer from forcing huge
// allocations. The high bit of the part count flags a frame whose last
// part is auxiliary: out-of-band metadata (the pipeline's wire trace
// context) that does not occupy an application part.
package msgq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"numastream/internal/bufpool"
	"numastream/internal/metrics"
	"numastream/internal/trace"
)

// Message is a multipart message.
type Message [][]byte

// Limits on the wire format.
const (
	MaxParts    = 128
	MaxPartSize = 64 << 20 // one part comfortably holds a projection chunk
)

// ErrClosed is returned by operations on closed sockets.
var ErrClosed = errors.New("msgq: socket closed")

// ErrNoPeers is returned (wrapped) by Send and WaitLiveTimeout when
// every peer stays dead past the configured horizon.
var ErrNoPeers = errors.New("msgq: no live peers")

// Failure-counter names recorded in a Push's Counters registry. The
// split between CtrDials and CtrRedials is what reconnect tests assert
// on: a redial is a connection re-established after a previous one on
// the same endpoint dropped.
const (
	CtrDials        = "msgq_dials"         // first successful connection per endpoint
	CtrRedials      = "msgq_redials"       // reconnections after a drop
	CtrDialErrors   = "msgq_dial_errors"   // failed dial attempts
	CtrConnDrops    = "msgq_conn_drops"    // connections dropped after a write failure
	CtrResends      = "msgq_resends"       // messages that needed more than one write attempt
	CtrSendTimeouts = "msgq_send_timeouts" // writes aborted by WriteTimeout
	CtrHorizonFails = "msgq_horizon_fails" // Sends failed by SendHorizon
	CtrDisconnects  = "msgq_disconnects"   // endpoints removed by Disconnect
)

// Latency histograms recorded in a Push's Counters registry
// (nanosecond observations). Dial latency is the TCP handshake cost of
// first connections; redial latency is the same cost during recovery —
// the two together bound how long the outage window of a dropped
// connection stays open beyond the backoff.
const (
	HistDialLatency   = "msgq_dial_latency_ns"
	HistRedialLatency = "msgq_redial_latency_ns"
)

// writeMessage serializes msg onto w, plus aux, when non-nil, as the
// frame's flagged auxiliary part. It is the scalar reference
// implementation writeVectored is tested against.
func writeMessage(w io.Writer, msg Message, aux []byte) error {
	if len(msg) > MaxParts {
		return fmt.Errorf("msgq: %d parts exceeds limit %d", len(msg), MaxParts)
	}
	cnt := uint32(len(msg))
	if aux != nil {
		msg = append(msg[:len(msg):len(msg)], aux)
		cnt = uint32(len(msg)) | auxFlag
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], cnt)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, part := range msg {
		if len(part) > MaxPartSize {
			return fmt.Errorf("msgq: part of %d bytes exceeds limit", len(part))
		}
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(part)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// pushConn pairs a connection with a write lock so concurrent Send
// calls sharing one socket never interleave frames on the wire. gone is
// closed exactly once, by whichever of drop/Close removes the
// connection, and wakes the endpoint's maintainer to redial. broken is
// guarded by writeMu: the Send that sees a write error sets it (and
// closes the conn) before releasing the lock, so a concurrent Send that
// was queued behind it can never write a frame onto a byte stream left
// misaligned by the partial one — such a write could land in the kernel
// buffer (appearing to succeed) while the receiver discards it as a
// framing error, i.e. silent loss.
type pushConn struct {
	addr    string // the Connect endpoint this connection belongs to
	conn    net.Conn
	writeMu sync.Mutex
	broken  bool
	gone    chan struct{}

	// Vectored-write scratch, guarded by writeMu. hdrScratch holds the
	// frame's count/length headers; vecScratch is the iovec list handed
	// to net.Buffers.WriteTo (one writev syscall on a TCP conn instead
	// of 2+2·parts Write calls — and no packed copy of header+payload).
	// Both keep their backing across frames, so a steady-state send
	// allocates nothing. vecConsume is the copy WriteTo consumes in
	// place: a field rather than a local, because taking a local slice's
	// address for the pointer-receiver WriteTo heap-escapes the header —
	// one allocation per frame.
	hdrScratch []byte
	vecScratch net.Buffers
	vecConsume net.Buffers
}

// writeVectored serializes msg (plus aux, when non-nil, as the flagged
// auxiliary part) onto w as one vectored write. Byte-for-byte identical
// on the wire to writeMessage, the reference implementation the
// equivalence tests diff against.
// Callers must hold pc.writeMu (the scratch buffers are per-connection
// state).
func (pc *pushConn) writeVectored(w io.Writer, msg Message, aux []byte) error {
	if len(msg) > MaxParts {
		return fmt.Errorf("msgq: %d parts exceeds limit %d", len(msg), MaxParts)
	}
	nHdrs := 1 + len(msg)
	if aux != nil {
		nHdrs++
	}
	if cap(pc.hdrScratch) < 4*nHdrs {
		pc.hdrScratch = make([]byte, 4*nHdrs)
	}
	hdrs := pc.hdrScratch[:4*nHdrs]
	vec := pc.vecScratch[:0]

	cnt := uint32(len(msg))
	if aux != nil {
		cnt = uint32(len(msg)+1) | auxFlag
	}
	binary.LittleEndian.PutUint32(hdrs[0:4], cnt)
	vec = append(vec, hdrs[0:4])
	off := 4
	// Inline (not a closure): a captured-variable closure costs one heap
	// allocation per frame, which the scratch-reuse test pins at zero.
	for i := 0; i <= len(msg); i++ {
		var part []byte
		if i < len(msg) {
			part = msg[i]
		} else if aux != nil {
			part = aux
		} else {
			break
		}
		if len(part) > MaxPartSize {
			return fmt.Errorf("msgq: part of %d bytes exceeds limit", len(part))
		}
		binary.LittleEndian.PutUint32(hdrs[off:off+4], uint32(len(part)))
		vec = append(vec, hdrs[off:off+4])
		off += 4
		if len(part) > 0 {
			// A zero-length part still gets its length header, but an
			// empty iovec would be a wasted writev slot.
			vec = append(vec, part)
		}
	}
	// WriteTo consumes its receiver in place (advancing the header,
	// nilling written entries so nothing is retained); keep the base-0
	// header in vecScratch so the backing array is reused next frame.
	pc.vecScratch = vec
	pc.vecConsume = vec
	_, err := pc.vecConsume.WriteTo(w)
	return err
}

// Push is the connect-side socket: it distributes messages round-robin
// over its live connections, blocks while none are up, and redials lost
// endpoints in the background with capped exponential backoff plus
// jitter. Send is safe for concurrent use: the paper's runtime shares
// one PUSH socket across all sending threads.
type Push struct {
	mu        sync.Mutex
	cond      *sync.Cond
	conns     []*pushConn
	next      int
	closed    bool
	finishing bool          // set by Finishing: a peer that leaves now is not a death
	done      chan struct{} // closed by Close; unblocks backoff sleeps
	dialers   sync.WaitGroup
	endpoints map[string]chan struct{} // addr -> its maintainer's stop channel

	// RetryInterval is the initial redial backoff (settable before
	// Connect). Each failed dial doubles it, capped at RetryMax, with
	// ±50% jitter so a fleet of senders does not redial in lockstep; a
	// successful connection resets it.
	RetryInterval time.Duration
	// RetryMax caps the redial backoff (default 2s).
	RetryMax time.Duration
	// SendHorizon bounds how long a Send blocks while every peer is
	// dead: once no connection has been live for this long, Send fails
	// with an error wrapping ErrNoPeers instead of blocking forever.
	// Zero means block until Close — the pre-fault-model behaviour.
	SendHorizon time.Duration
	// WriteTimeout is the per-message write deadline. A write that
	// stalls past it fails, the connection is dropped (the peer is
	// wedged, not slow: frame alignment is lost mid-message) and the
	// message retries elsewhere. Zero means no deadline.
	WriteTimeout time.Duration
	// Dial overrides the transport dialer; nil means plain TCP. Fault
	// injection (faults.Injector.Dialer) and tests hook in here.
	Dial func(addr string) (net.Conn, error)
	// Counters, when non-nil, receives the Ctr* failure counters.
	Counters *metrics.Registry
	// Label is this peer's advertised name in the hello (typically the
	// pipeline node name). Empty is fine.
	Label string
	// OnPeerDown, when non-nil, is called with the endpoint address each
	// time a live connection is lost — a failed write or the peer-death
	// monitor seeing FIN/RST. It is NOT called for administrative
	// teardown (Close, Disconnect): removing a peer on purpose is not a
	// death. Set before Connect; called without internal locks held, so
	// the callback may query Live() or even Close the socket. Failover
	// accounting (a sender's relay_failovers, a forwarder's peer_deaths)
	// keys off this the instant the transport knows.
	OnPeerDown func(addr string)
	// OnResend, when non-nil, is called with a message that needed more
	// than one write attempt, once a later attempt succeeded — exactly
	// when CtrResends counts. It runs on the sending goroutine without
	// internal locks held; a relay counts its reroutes here.
	OnResend func(msg Message)
}

// NewPush returns an unconnected PUSH socket.
func NewPush() *Push {
	p := &Push{
		RetryInterval: 100 * time.Millisecond,
		RetryMax:      2 * time.Second,
		done:          make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *Push) count(name string) {
	if p.Counters != nil {
		p.Counters.Counter(name).Inc()
	}
}

func (p *Push) observe(name string, d time.Duration) {
	if p.Counters != nil {
		p.Counters.Histogram(name).ObserveDuration(d)
	}
}

func (p *Push) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

func (p *Push) dial(addr string) (net.Conn, error) {
	if p.Dial != nil {
		return p.Dial(addr)
	}
	return net.Dial("tcp", addr)
}

// Connect starts maintaining a connection to addr until Close or
// Disconnect(addr): dial, redial on failure with backoff, and — unlike
// a one-shot dialer — automatically re-establish the connection
// whenever it later drops. It returns after launching the maintainer
// (connections come up asynchronously; Send blocks until one is live).
// Connecting an endpoint already being maintained, or after Close, is a
// no-op. It reports whether addr was added, as Disconnect reports
// whether it was removed.
func (p *Push) Connect(addr string) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	if p.endpoints == nil {
		p.endpoints = make(map[string]chan struct{})
	}
	if _, ok := p.endpoints[addr]; ok {
		p.mu.Unlock()
		return false
	}
	stop := make(chan struct{})
	p.endpoints[addr] = stop
	p.dialers.Add(1)
	p.mu.Unlock()
	go p.maintain(addr, stop)
	return true
}

// Disconnect stops maintaining addr and tears down its current
// connection — the dynamic-remove counterpart of Connect, so a relay
// can drop a downstream that left the cluster while the stream keeps
// flowing to the rest. An on-purpose removal is not a peer death:
// OnPeerDown does not fire and CtrConnDrops does not count (a
// CtrDisconnects counter does). It reports whether the endpoint was
// being maintained. The endpoint can be re-added later with Connect.
func (p *Push) Disconnect(addr string) bool {
	p.mu.Lock()
	stop, ok := p.endpoints[addr]
	if !ok {
		p.mu.Unlock()
		return false
	}
	delete(p.endpoints, addr)
	close(stop)
	var dead []*pushConn
	kept := p.conns[:0]
	for _, c := range p.conns {
		if c.addr == addr {
			dead = append(dead, c)
		} else {
			kept = append(kept, c)
		}
	}
	p.conns = kept
	p.mu.Unlock()
	for _, c := range dead {
		c.conn.Close()
		close(c.gone)
	}
	p.count(CtrDisconnects)
	return true
}

// maintain owns one endpoint's connection lifecycle. stop is the
// endpoint's registry channel: Disconnect closes it (and removes any
// live connection itself), telling the maintainer to exit instead of
// redialing.
func (p *Push) maintain(addr string, stop chan struct{}) {
	defer p.dialers.Done()
	initial := p.RetryInterval
	if initial <= 0 {
		initial = 100 * time.Millisecond
	}
	max := p.RetryMax
	if max < initial {
		max = initial
	}
	backoff := initial
	established := 0
	for {
		if p.isClosed() {
			return
		}
		dialT0 := time.Now()
		conn, err := p.dial(addr)
		if err == nil {
			// The dial/redial latency histograms include the handshake:
			// what they bound is time-to-first-sendable-connection, and
			// a connection is not sendable until the handshake ends.
			err = clientHandshake(conn, p.Label)
			if err != nil {
				conn.Close()
			}
		}
		if err != nil {
			p.count(CtrDialErrors)
			// Jittered sleep in [backoff/2, backoff), interruptible
			// by Close or Disconnect.
			d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			select {
			case <-time.After(d):
			case <-p.done:
				return
			case <-stop:
				return
			}
			backoff *= 2
			if backoff > max {
				backoff = max
			}
			continue
		}
		pc := &pushConn{addr: addr, conn: conn, gone: make(chan struct{})}
		p.mu.Lock()
		// Registry membership is the liveness check: Disconnect deletes
		// the entry under the same lock, so a dial racing a Disconnect
		// can never register a connection that nothing will tear down.
		// Identity (not mere presence) matters: a Disconnect+Connect
		// cycle installs a fresh channel, and the stale maintainer must
		// stand down rather than double up with the new one.
		if p.closed || p.endpoints[addr] != stop {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns = append(p.conns, pc)
		p.cond.Broadcast()
		p.mu.Unlock()
		// Peer-death monitor: a PULL peer never sends application data
		// after the handshake, so a Read returning at all means the
		// connection died (FIN/RST) or the peer is violating the
		// protocol — either way, drop it now. Without this, a dead
		// peer is only discovered by a failing write, and a single
		// vectored write can land a whole frame in the kernel buffer
		// "successfully" before the reset is seen — one frame lost per
		// outage instead of zero-ish. drop is idempotent, so racing
		// the write-failure path is harmless.
		go func() {
			var b [1]byte
			pc.conn.Read(b[:])
			p.drop(pc)
		}()
		if established == 0 {
			p.count(CtrDials)
			p.observe(HistDialLatency, time.Since(dialT0))
		} else {
			p.count(CtrRedials)
			p.observe(HistRedialLatency, time.Since(dialT0))
		}
		established++
		backoff = initial
		select {
		case <-pc.gone: // connection dropped or socket closed; loop to redial
		case <-stop: // Disconnect tears the connection down itself
			return
		}
	}
}

// drop removes a dead connection and wakes its maintainer. Only the
// goroutine that removes pc from p.conns closes pc.gone, so the channel
// closes exactly once even when Send and Close race.
func (p *Push) drop(pc *pushConn) {
	p.mu.Lock()
	for i, c := range p.conns {
		if c == pc {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			finishing := p.finishing
			p.mu.Unlock()
			pc.conn.Close()
			close(pc.gone)
			if finishing {
				return
			}
			p.count(CtrConnDrops)
			if f := p.OnPeerDown; f != nil {
				f(pc.addr)
			}
			return
		}
	}
	p.mu.Unlock()
}

// Finishing declares that no Send will start after the ones now under
// way or about to begin on the calling goroutine: the stream's last
// messages are in the transport's hands. A peer that closes from here
// on is ending the session in its own time (a receiver that has counted
// its last expected message closes without waiting for the sender), not
// dying mid-stream, so OnPeerDown stays silent and CtrConnDrops does not
// count. It must be called before the last write starts — afterwards
// the peer's FIN can overtake the writer's return from the syscall — so
// Sends other goroutines have under way at that moment are covered too:
// a peer that dies during them goes uncounted. A write that fails after
// Finishing is still retried, redialing if need be, and still shows in
// CtrResends and CtrRedials.
func (p *Push) Finishing() {
	p.mu.Lock()
	p.finishing = true
	p.mu.Unlock()
}

// Live returns the number of currently connected peers.
func (p *Push) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// WaitLiveTimeout blocks until at least n peers are connected (or the
// socket closes, returning ErrClosed). Senders distributing across
// several receivers call this before streaming so early chunks don't all
// land on whichever peer dialed fastest. It returns an error wrapping
// ErrNoPeers if fewer than n peers are live once d elapses, so a node
// can report "receiver never came up" instead of hanging.
func (p *Push) WaitLiveTimeout(n int, d time.Duration) error {
	deadline := time.Now().Add(d)
	t := time.AfterFunc(d, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer t.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.conns) < n && !p.closed && time.Now().Before(deadline) {
		p.cond.Wait()
	}
	if p.closed {
		return ErrClosed
	}
	if len(p.conns) < n {
		return fmt.Errorf("%w: %d of %d peers live after %v", ErrNoPeers, len(p.conns), n, d)
	}
	return nil
}

// Send writes msg to the next live connection (round robin), blocking
// while none are available. A connection that fails is dropped and the
// message retried on another or after the background redial; the message
// is never silently lost unless the socket closes. Delivery is
// at-least-once, not exactly-once: a write that errors after the frame
// was already fully buffered (e.g. a WriteTimeout racing completion, or
// a reset observed on the deadline-clearing path) is retried whole on
// another connection, so the receiver can see a duplicate — pipeline
// sequence accounting (CtrSeqLate) surfaces these. With SendHorizon set,
// Send instead fails (wrapping ErrNoPeers) once every peer has stayed
// dead for that long — the bounded-unavailability contract the streaming
// pipeline needs to abort cleanly instead of wedging a worker forever.
func (p *Push) Send(msg Message) error {
	return p.send(msg, nil)
}

// SendTagged is Send with an auxiliary metadata part (the pipeline's
// wire trace context). The aux part rides the frame, flagged so the
// receiver surfaces it via Delivery.Aux. A nil or empty aux makes
// SendTagged identical to Send.
func (p *Push) SendTagged(msg Message, aux []byte) error {
	if len(aux) == 0 {
		aux = nil
	}
	return p.send(msg, aux)
}

func (p *Push) send(msg Message, aux []byte) error {
	// Validate up front: a malformed message is the caller's error, not
	// a connection failure to retry around.
	if len(msg) > MaxParts {
		return fmt.Errorf("msgq: %d parts exceeds limit %d", len(msg), MaxParts)
	}
	for _, part := range msg {
		if len(part) > MaxPartSize {
			return fmt.Errorf("msgq: part of %d bytes exceeds limit", len(part))
		}
	}
	if len(aux) > MaxPartSize {
		return fmt.Errorf("msgq: aux part of %d bytes exceeds limit", len(aux))
	}
	var horizonAt time.Time // deadline, armed when we first see zero live peers
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		for len(p.conns) == 0 && !p.closed {
			if p.SendHorizon <= 0 {
				p.cond.Wait()
				continue
			}
			now := time.Now()
			if horizonAt.IsZero() {
				horizonAt = now.Add(p.SendHorizon)
			}
			if !now.Before(horizonAt) {
				p.mu.Unlock()
				p.count(CtrHorizonFails)
				return fmt.Errorf("%w for %v", ErrNoPeers, p.SendHorizon)
			}
			// cond.Wait cannot time out; arm a wake-up at the horizon
			// so the loop re-checks the deadline even if no
			// connection event ever arrives.
			t := time.AfterFunc(horizonAt.Sub(now), func() {
				p.mu.Lock()
				p.cond.Broadcast()
				p.mu.Unlock()
			})
			p.cond.Wait()
			t.Stop()
		}
		if p.closed {
			p.mu.Unlock()
			return ErrClosed
		}
		horizonAt = time.Time{} // peers live again; horizon re-arms on the next outage
		p.next = (p.next + 1) % len(p.conns)
		pc := p.conns[p.next]
		p.mu.Unlock()

		pc.writeMu.Lock()
		if pc.broken {
			// A previous Send failed mid-frame on this connection; it is
			// already being dropped. Never write after a partial frame.
			pc.writeMu.Unlock()
			p.drop(pc)
			continue
		}
		if p.WriteTimeout > 0 {
			pc.conn.SetWriteDeadline(time.Now().Add(p.WriteTimeout))
		}
		err := pc.writeVectored(pc.conn, msg, aux)
		if p.WriteTimeout > 0 {
			pc.conn.SetWriteDeadline(time.Time{})
		}
		if err != nil {
			// Poison under writeMu (and close, so nothing already queued
			// in the kernel path can sneak out) before any waiting Send
			// can acquire the lock.
			pc.broken = true
			pc.conn.Close()
		}
		pc.writeMu.Unlock()
		if err == nil {
			if attempt > 0 {
				p.count(CtrResends)
				if f := p.OnResend; f != nil {
					f(msg)
				}
			}
			return nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			p.count(CtrSendTimeouts)
		}
		// Drop the dead connection (waking its redialer) and retry.
		p.drop(pc)
	}
}

// Close tears down all connections and stops the redialers. Pending
// Sends fail with ErrClosed.
func (p *Push) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.conns = nil
	close(p.done)
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, c := range conns {
		c.conn.Close()
		close(c.gone)
	}
	p.dialers.Wait()
	return nil
}

// Delivery is one received message plus its transport context: who sent
// it, when it arrived (trace clock), the auxiliary part if the frame
// carried one, and the sender-clock offset estimated by that
// connection's handshake. Recv discards the context; RecvDelivery
// surfaces it for journey stitching.
type Delivery struct {
	Msg Message
	// Aux is the frame's auxiliary metadata part, nil on unflagged
	// frames.
	Aux []byte
	// RecvNanos is trace.NowNanos() at the moment the frame was fully
	// read off the wire.
	RecvNanos int64
	// Peer is the sender's advertised hello label, or its remote
	// address when the label is empty.
	Peer string
	// ClockOffset estimates (sender trace clock − local trace clock)
	// for the connection this message arrived on. Re-sampled on every
	// redial.
	ClockOffset time.Duration
	// RTT is the round-trip time of the winning clock-probe sample —
	// the offset's error bound is half of it.
	RTT time.Duration
	// Frame owns the buffers backing Msg and Aux; it is never nil on a
	// received Delivery. On a Pull with a buffer pool attached
	// (SetBufferPool) the consumer must call Frame.Release exactly once
	// when it is done with those bytes. Without a pool releasing is
	// optional, but a second Release panics either way.
	Frame *Frame
}

// Pull is the bind-side socket: it accepts any number of PUSH peers and
// fair-queues their messages into Recv.
type Pull struct {
	ln net.Listener
	// inbox holds every received frame: one ring until SetDispatch
	// shards it (see shard.go). cursor is the drain position of
	// Recv/RecvDelivery, advanced under the inbox's lock.
	inbox    *shardedInbox
	cursor   ShardCursor
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	readErrs atomic.Int64

	// label is set through SetLabel: the accept loop is already running
	// when the constructor returns, so a plain public field would race
	// with readLoop goroutines.
	label string

	// pool/poolDomain, set through SetBufferPool, switch the read loops
	// to pooled frames.
	pool       *bufpool.Pool
	poolDomain int
}

// SetBufferPool makes the read loops rent part buffers from pool (on
// behalf of the given NUMA domain — typically the domain the receive
// workers are pinned to) instead of allocating per part. Call it right
// after construction, like SetLabel: connections accepted earlier keep
// allocating.
//
// With a pool attached, the consumer MUST use RecvDelivery and call
// Frame.Release when done —
// plain Recv would discard the Frame and strand its leases. Messages
// still queued at Close are likewise stranded (the buffers themselves
// are garbage-collected; only the pool's outstanding gauge remembers
// them).
func (p *Pull) SetBufferPool(pool *bufpool.Pool, domain int) {
	p.mu.Lock()
	p.pool = pool
	p.poolDomain = domain
	p.mu.Unlock()
}

// SetLabel sets this peer's advertised name in the hello (typically the
// pipeline node name). Call it right after construction:
// peers that completed their handshake earlier saw the old value.
func (p *Pull) SetLabel(label string) {
	p.mu.Lock()
	p.label = label
	p.mu.Unlock()
}

// NewPull binds a PULL socket on addr (e.g. "127.0.0.1:0").
func NewPull(addr string) (*Pull, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msgq: bind %s: %w", addr, err)
	}
	return NewPullFromListener(ln), nil
}

// NewPullFromListener serves a PULL socket on an existing listener —
// the injection point for fault-wrapped listeners (faults.Injector) and
// custom transports. The Pull takes ownership of ln.
func NewPullFromListener(ln net.Listener) *Pull {
	p := &Pull{
		ln:    ln,
		inbox: newShardedInbox(1, 256, nil),
		conns: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

// ReadErrors returns the number of peer connections torn down by a
// failed handshake or a framing error (truncated or malformed frame)
// rather than a clean EOF. A failed handshake is a peer that did not
// open with a hello of version ≥ 2, or did not finish the handshake
// within its guard. A framing error is a partially received message
// that was discarded, which the sending side retransmits whole on its
// next connection.
func (p *Pull) ReadErrors() int64 { return p.readErrs.Load() }

// Addr returns the bound address (useful with ":0").
func (p *Pull) Addr() net.Addr { return p.ln.Addr() }

func (p *Pull) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

func (p *Pull) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		conn.Close()
	}()
	p.mu.Lock()
	label := p.label
	pool := p.pool
	poolDomain := p.poolDomain
	p.mu.Unlock()
	ps, err := serverHandshake(conn, label)
	if err != nil {
		// A connection that fails its handshake discarded no frame, but
		// like a framing error it tore down before a clean EOF.
		if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			p.readErrs.Add(1)
		}
		return
	}
	peer := ps.label
	if peer == "" {
		peer = conn.RemoteAddr().String()
	}
	for {
		frame, err := readFrame(conn, pool, poolDomain)
		if err != nil {
			// Clean EOF is a peer closing between messages; our own
			// Close also surfaces here. Anything else tore down a
			// frame mid-message.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				p.readErrs.Add(1)
			}
			return
		}
		d := Delivery{
			Msg:         frame.Msg(),
			Aux:         frame.Aux(),
			RecvNanos:   trace.NowNanos(),
			Peer:        peer,
			ClockOffset: ps.offset,
			RTT:         ps.rtt,
			Frame:       frame,
		}
		// Classify on this connection's goroutine — a dispatch that
		// blocks (a stream out of credit) stalls only this peer's
		// connection, which is exactly the per-stream backpressure the
		// gateway wants TCP to propagate.
		shard, ok := p.inbox.classify(&d)
		if !ok {
			frame.Release() // rejected (admission) or gate closed
			continue
		}
		if err := p.inbox.put(shard, d); err != nil {
			frame.Release() // socket closed; don't strand the leases
			return
		}
	}
}

// Recv returns the next message, fair-queued across peers, blocking
// until one arrives. It returns ErrClosed after Close once the inbox has
// drained.
func (p *Pull) Recv() (Message, error) {
	d, err := p.RecvDelivery()
	return d.Msg, err
}

// RecvDelivery is Recv keeping the transport context: the auxiliary
// part, arrival timestamp, peer label and clock-offset estimate.
func (p *Pull) RecvDelivery() (Delivery, error) {
	return p.inbox.get(&p.cursor)
}

// Close stops accepting, closes peers and the inbox (Recv drains
// remaining messages first). The inbox closes before the read loops are
// waited for: one parked on a full shard must fail out, not wait for a
// consumer that may already be gone.
func (p *Pull) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()

	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.inbox.close()
	p.wg.Wait()
	return nil
}
