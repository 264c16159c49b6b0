package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/numa"
	"numastream/internal/queue"
	"numastream/internal/runtime"
)

// The upstream gateway of Figure 1 does more than terminate streams: it
// is "accumulated for pre-processing or load-balancing before being
// forwarded to an HPC cluster". RunForwarder is that role: a node that
// receives chunks from any number of instrument-side senders and
// re-pushes them — still compressed, no decode/re-encode on the hot
// path — round-robin across its downstream HPC peers.
//
// The forwarder is built to survive churn. Each downstream is its own
// lane (a dedicated PUSH socket) with health fed by the transport's
// peer-death monitor: a chunk whose lane fails mid-send retries on the
// surviving lanes, lanes can be added and removed while the stream
// flows (Peers), and the relay only aborts when the live-lane count
// stays below MinDownstream for longer than PeerHorizon.

// Churn counter names recorded in the forwarder's Metrics registry.
const (
	// CtrReroutes counts chunks that needed more than one send attempt
	// — diverted from a failed lane onto a survivor. A per-stream
	// variant "reroutes_stream_<id>" is kept alongside.
	CtrReroutes = "reroutes"
	// CtrPeerDeaths counts live downstream connections lost to a write
	// failure or the peer-death monitor (administrative removal via
	// Peers does not count).
	CtrPeerDeaths = "peer_deaths"
	// CtrPeersAdded / CtrPeersRemoved count dynamic membership changes
	// applied from the Peers channel.
	CtrPeersAdded   = "peers_added"
	CtrPeersRemoved = "peers_removed"
	// CtrRelayDropped counts chunks left in the relay queue when the
	// forwarder aborted — chunks it accepted upstream but could not
	// place downstream. Zero on a clean stop.
	CtrRelayDropped = "relay_dropped"
)

// PeerChange is one dynamic downstream membership change.
type PeerChange struct {
	Addr   string
	Remove bool
}

// ForwarderOptions configures RunForwarder.
type ForwarderOptions struct {
	// Cfg supplies the receive group (thread count and placement);
	// the same group drives the forwarding workers, which are
	// receive-shaped work.
	Cfg  runtime.NodeConfig
	Topo numa.HostTopology
	// Bind is the upstream-facing PULL address.
	Bind string
	// Downstream are the HPC-side PULL addresses to push to.
	Downstream []string
	// MinDownstream delays forwarding until that many downstream lanes
	// are live, and is the survival floor while streaming: the
	// forwarder aborts only when fewer lanes than this stay live past
	// PeerHorizon (a floor of 1 applies even when zero — a relay with
	// no live downstream cannot make progress).
	MinDownstream int
	// PeerHorizon bounds how long the forwarder tolerates a live-lane
	// deficit — at startup and mid-stream — before giving up (default
	// 5s). Shorter horizons fail drills fast; longer ones ride out
	// slow restarts.
	PeerHorizon time.Duration
	// Peers, when non-nil, carries downstream membership changes while
	// the forwarder runs: adds dial a new lane, removes tear one down
	// (without counting a peer death). Closing the channel stops the
	// membership watcher, not the forwarder.
	Peers <-chan PeerChange
	// Expect is the number of chunks to forward before returning;
	// with Expect <= 0 the forwarder runs until Stop closes.
	Expect int
	// Stop ends an open-ended forwarder.
	Stop <-chan struct{}
	// Metrics, when non-nil, receives the two stages' series ("intake"
	// and "forward" meters, their _latency_ns and _qwait_ns histograms
	// and _workers_pinned gauges), the relayq gauges, the churn counters
	// above, and the transport counters of every lane.
	Metrics *metrics.Registry
	// QueueCap bounds the internal queue (default 16).
	QueueCap int
	// Ready, when non-nil, receives the bound upstream address. Use a
	// buffered channel (capacity 1) if the caller might abandon the
	// forwarder before reading: the send is abandoned when Stop fires,
	// but an unbuffered Ready with no reader and no Stop blocks the
	// forwarder forever.
	Ready chan<- string
}

// lane is one downstream peer: a dedicated PUSH socket whose Live()
// count is the health signal (the peer-death monitor drops dead
// connections the moment the transport knows).
type lane struct {
	addr string
	push *msgq.Push
}

// errFwdStopped is relay's signal that Stop/abort fired while a chunk
// was waiting for a live lane — a clean exit, not a delivery failure.
var errFwdStopped = fmt.Errorf("pipeline: forwarder stopped")

// forwarder is RunForwarder's shared state.
type forwarder struct {
	reg     *metrics.Registry
	minLive int
	horizon time.Duration
	done    chan struct{}

	mu    sync.Mutex
	lanes []*lane // copy-on-write: readers snapshot under mu, then iterate lock-free
	rr    int

	streamMu sync.Mutex
	streams  map[uint32]*metrics.Counter // lazy per-stream reroute counters
}

func (f *forwarder) snapshot() []*lane {
	f.mu.Lock()
	s := f.lanes
	f.mu.Unlock()
	return s
}

func (f *forwarder) liveLanes() int {
	n := 0
	for _, ln := range f.snapshot() {
		if ln.push.Live() > 0 {
			n++
		}
	}
	return n
}

// newLane builds a lane socket wired into the shared registry. The
// short SendHorizon makes a send on a lane that died between the
// health check and the write fail fast so the chunk moves on.
func (f *forwarder) newLane(addr string, label string) *lane {
	push := msgq.NewPush()
	push.Counters = f.reg
	push.Label = label
	push.SendHorizon = f.horizon / 10
	if push.SendHorizon < 50*time.Millisecond {
		push.SendHorizon = 50 * time.Millisecond
	}
	push.OnPeerDown = func(string) { f.reg.Counter(CtrPeerDeaths).Inc() }
	push.Connect(addr)
	return &lane{addr: addr, push: push}
}

func (f *forwarder) addLane(addr, label string) {
	f.mu.Lock()
	for _, ln := range f.lanes {
		if ln.addr == addr {
			f.mu.Unlock()
			return
		}
	}
	next := make([]*lane, len(f.lanes), len(f.lanes)+1)
	copy(next, f.lanes)
	f.lanes = append(next, f.newLane(addr, label))
	f.mu.Unlock()
	f.reg.Counter(CtrPeersAdded).Inc()
}

func (f *forwarder) removeLane(addr string) {
	f.mu.Lock()
	var victim *lane
	next := make([]*lane, 0, len(f.lanes))
	for _, ln := range f.lanes {
		if ln.addr == addr && victim == nil {
			victim = ln
			continue
		}
		next = append(next, ln)
	}
	f.lanes = next
	f.mu.Unlock()
	if victim != nil {
		victim.push.Close()
		f.reg.Counter(CtrPeersRemoved).Inc()
	}
}

func (f *forwarder) closeLanes() {
	for _, ln := range f.snapshot() {
		ln.push.Close()
	}
}

// streamReroute bumps the per-stream reroute counter for the chunk in
// msg. Slow path only (a reroute already cost a failed write), so the
// map lock and the lazy counter lookup are off the steady-state path.
func (f *forwarder) streamReroute(msg msgq.Message) {
	c, _, err := decodeHeader(msg[0])
	if err != nil {
		return
	}
	f.streamMu.Lock()
	ctr, ok := f.streams[c.Stream]
	if !ok {
		// Capped per-stream series: folds into "reroutes_stream_other"
		// past the registry's stream cap.
		ctr = f.reg.StreamCounter("reroutes", c.Stream)
		f.streams[c.Stream] = ctr
	}
	f.streamMu.Unlock()
	ctr.Inc()
}

// relay places one chunk on a live lane, rerouting across survivors
// when lanes fail. It returns errFwdStopped if the forwarder stops
// while the chunk waits, and a hard error only when the live-lane
// count stays below the survival floor past the horizon.
func (f *forwarder) relay(msg msgq.Message) error {
	failures := 0
	var deficitAt time.Time
	for {
		snap := f.snapshot()
		f.mu.Lock()
		f.rr++
		start := f.rr
		f.mu.Unlock()
		live := 0
		for i := 0; i < len(snap); i++ {
			ln := snap[(start+i)%len(snap)]
			if ln.push.Live() == 0 {
				continue
			}
			live++
			if err := ln.push.Send(msg); err == nil {
				if failures > 0 {
					f.reg.Counter(CtrReroutes).Inc()
					f.streamReroute(msg)
				}
				return nil
			}
			// The failed lane's connection is already dropped (and its
			// redialer dialing); the next live lane gets the chunk.
			failures++
		}
		if live < f.minLive {
			now := time.Now()
			if deficitAt.IsZero() {
				deficitAt = now.Add(f.horizon)
			}
			if !now.Before(deficitAt) {
				return fmt.Errorf("pipeline: forwarder below %d live downstream lanes for %v", f.minLive, f.horizon)
			}
		} else {
			deficitAt = time.Time{} // enough lanes live; failures were transient
		}
		select {
		case <-f.done:
			return errFwdStopped
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// RunForwarder relays chunks from upstream senders to downstream
// receivers until Expect chunks have been forwarded (or Stop closes).
// Chunks pass through verbatim — header and payload — so compression
// survives the hop and per-stream ids stay intact. Downstream failures
// are survived, not fatal: see ForwarderOptions.MinDownstream.
func RunForwarder(opts ForwarderOptions) error {
	if err := opts.Cfg.Validate(len(opts.Topo.Nodes)); err != nil {
		return err
	}
	if opts.Cfg.Role != runtime.Receiver {
		return fmt.Errorf("pipeline: RunForwarder needs a receiver-role config, got %q", opts.Cfg.Role)
	}
	g, _ := opts.Cfg.Group(runtime.Receive)
	if g.Count < 1 {
		return fmt.Errorf("pipeline: forwarder config has no receive threads")
	}
	if len(opts.Downstream) == 0 {
		return fmt.Errorf("pipeline: forwarder has no downstream peers")
	}
	if opts.Expect <= 0 && opts.Stop == nil {
		return fmt.Errorf("pipeline: forwarder needs a positive Expect count or a Stop channel")
	}
	if opts.MinDownstream > len(opts.Downstream) {
		return fmt.Errorf("pipeline: MinDownstream %d exceeds peer count %d",
			opts.MinDownstream, len(opts.Downstream))
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.PeerHorizon <= 0 {
		opts.PeerHorizon = 5 * time.Second
	}
	// Both stages are receive-shaped work and run on the receive group's
	// placement, resolved before anything starts.
	n := &node{topo: opts.Topo, reg: opts.Metrics}
	intake, err := n.place("intake", g)
	if err != nil {
		return err
	}
	egress := intake
	egress.name = "forward"

	// Every goroutine started below ends when done closes, and every
	// return closes it — a run that ends by Expect, an error or the
	// start-up deadline while Stop stays open leaves nothing behind. It
	// is also the node's abort path: a failing stage worker stops all.
	done := make(chan struct{})
	var doneOnce sync.Once
	stopAll := func() { doneOnce.Do(func() { close(done) }) }
	defer stopAll()
	n.abort = stopAll
	if opts.Stop != nil {
		go func() {
			select {
			case <-opts.Stop:
				stopAll()
			case <-done:
			}
		}()
	}

	pull, err := msgq.NewPull(opts.Bind)
	if err != nil {
		return err
	}
	defer pull.Close()
	if opts.Ready != nil {
		select {
		case opts.Ready <- pull.Addr().String():
		case <-done:
		}
	}

	f := &forwarder{
		reg:     opts.Metrics,
		minLive: opts.MinDownstream,
		horizon: opts.PeerHorizon,
		done:    done,
		streams: make(map[uint32]*metrics.Counter),
	}
	if f.minLive < 1 {
		f.minLive = 1
	}
	for _, peer := range opts.Downstream {
		f.lanes = append(f.lanes, f.newLane(peer, opts.Cfg.Node))
	}
	defer f.closeLanes()
	if opts.Peers != nil {
		go func() {
			for {
				select {
				case <-done:
					return
				case ch, ok := <-opts.Peers:
					if !ok {
						return
					}
					if ch.Remove {
						f.removeLane(ch.Addr)
					} else {
						f.addLane(ch.Addr, opts.Cfg.Node)
					}
				}
			}
		}()
	}
	if opts.MinDownstream > 0 {
		deadline := time.Now().Add(opts.PeerHorizon)
		for f.liveLanes() < opts.MinDownstream {
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: %d of %d downstream lanes live after %v",
					msgq.ErrNoPeers, f.liveLanes(), opts.MinDownstream, opts.PeerHorizon)
			}
			select {
			case <-done:
				return nil // stopped before streaming began
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// Health monitor: the survival floor is about lane count, not about
	// any one chunk's fate. A relay running with fewer live lanes than
	// MinDownstream past the horizon aborts even while the survivors
	// still accept chunks — the operator asked for that much redundancy,
	// and silently running degraded is how the next death loses data.
	healthErr := make(chan error, 1)
	go func() {
		var deficitSince time.Time
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if f.liveLanes() >= f.minLive {
				deficitSince = time.Time{}
				continue
			}
			now := time.Now()
			if deficitSince.IsZero() {
				deficitSince = now
				continue
			}
			if now.Sub(deficitSince) >= f.horizon {
				healthErr <- fmt.Errorf("pipeline: forwarder below %d live downstream lanes for %v", f.minLive, f.horizon)
				stopAll()
				return
			}
		}
	}()

	relayQ := queue.New[msgq.Message](opts.QueueCap)
	watchQueue(opts.Metrics, "relayq", relayQ)
	go func() {
		<-done
		pull.Close()
		relayQ.Close()
	}()

	// Intake: pull from upstream into the relay queue. The last intake
	// worker out closes it, so egress drains what intake accepted.
	start(n, intake, relayQ.Close, func(*Worker, *stageObserver) stageLoop[msgq.Message, msgq.Message] {
		return stageLoop[msgq.Message, msgq.Message]{
			next: pull.Recv,
			work: func(msg msgq.Message) (msgq.Message, result, error) {
				c, _, err := parseFrame(msg)
				if err != nil {
					return nil, result{}, fmt.Errorf("forwarder intake: %w", err)
				}
				return msg, result{bytes: len(msg[1]), seq: c.Seq}, nil
			},
			emit: func(msg msgq.Message) bool { return relayQ.Put(msg) == nil },
		}
	})
	// Egress: push downstream round-robin, rerouting around dead lanes.
	// The chunk that meets Expect (never, without one) stops the relay.
	var forwarded atomic.Int64
	start(n, egress, nil, func(*Worker, *stageObserver) stageLoop[msgq.Message, msgq.Message] {
		return stageLoop[msgq.Message, msgq.Message]{
			next: relayQ.Get,
			work: func(msg msgq.Message) (msgq.Message, result, error) {
				if err := f.relay(msg); err != nil {
					return nil, result{}, err
				}
				if forwarded.Add(1) == int64(opts.Expect) {
					stopAll()
				}
				return msg, result{bytes: len(msg[1])}, nil
			},
		}
	})
	err = n.wait()
	stopAll()
	// Account for chunks the relay accepted but could not place: an
	// aborting egress leaves them in the queue, and "accepted upstream,
	// dropped here" is exactly what the exactly-once ledger downstream
	// needs attributed.
	for {
		if _, err := relayQ.Get(); err != nil {
			break
		}
		opts.Metrics.Counter(CtrRelayDropped).Inc()
	}
	if err != nil {
		return err
	}
	select {
	case err := <-healthErr:
		return err
	default:
	}
	if got := forwarded.Load(); got < int64(opts.Expect) {
		return fmt.Errorf("pipeline: forwarded %d of %d expected chunks", got, opts.Expect)
	}
	return nil
}
