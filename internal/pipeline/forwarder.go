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
// The forwarder is built to survive churn. Its egress workers share one
// PUSH socket over every downstream, as a sender's send workers do: the
// socket balances chunks round-robin over its live connections, retries
// a chunk whose write fails on the next one, and redials a dead peer in
// the background. Downstreams can be added and removed while the stream
// flows (Peers), and the relay only aborts when fewer than MinDownstream
// stay live for longer than PeerHorizon.

// Churn counter names recorded in the forwarder's Metrics registry.
const (
	// CtrReroutes counts chunks that needed more than one send attempt
	// — diverted from a failed downstream connection onto the next. A
	// per-stream variant "reroutes_stream_<id>" is kept alongside.
	CtrReroutes = "reroutes"
	// CtrPeerDeaths counts live downstream connections lost to a write
	// failure or the peer-death monitor (administrative removal via
	// Peers does not count).
	CtrPeerDeaths = "peer_deaths"
	// CtrPeersAdded / CtrPeersRemoved count the Peers channel's changes
	// that changed the downstream set: re-adding a present peer or
	// removing an absent one counts nothing.
	CtrPeersAdded   = "peers_added"
	CtrPeersRemoved = "peers_removed"
	// CtrRelayDropped counts chunks intake accepted that were never
	// forwarded: left in the relay queue, refused by a closing queue, or
	// held by an egress worker whose send failed. On every exit the
	// intake meter's items equal the forward meter's plus this.
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
	// MinDownstream delays forwarding until that many downstreams are
	// live, and is the survival floor while streaming: the forwarder
	// aborts only when fewer than this stay live past PeerHorizon (a
	// floor of 1 applies even when zero — a relay with no live
	// downstream cannot make progress).
	MinDownstream int
	// PeerHorizon bounds how long the forwarder tolerates a live-peer
	// deficit — at startup and mid-stream — before giving up (default
	// 5s). Shorter horizons fail drills fast; longer ones ride out
	// slow restarts.
	PeerHorizon time.Duration
	// Peers, when non-nil, carries downstream membership changes while
	// the forwarder runs: adds connect a new downstream, removes
	// disconnect one (without counting a peer death). Closing the
	// channel stops the membership watcher, not the forwarder.
	Peers <-chan PeerChange
	// Expect is the number of chunks to forward before returning;
	// with Expect <= 0 the forwarder runs until Stop closes.
	Expect int
	// Stop ends an open-ended forwarder.
	Stop <-chan struct{}
	// Metrics, when non-nil, receives the two stages' series ("intake"
	// and "forward" meters, their _latency_ns and _qwait_ns histograms
	// and _workers_pinned gauges), the relayq gauges, the churn counters
	// above, and the downstream socket's transport counters.
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

	// Egress sends through one PUSH socket over every downstream, as a
	// sender's send workers do.
	reg := opts.Metrics
	minLive := max(opts.MinDownstream, 1)
	push := msgq.NewPush()
	push.Counters = reg
	push.Label = opts.Cfg.Node
	push.SendHorizon = opts.PeerHorizon
	defer push.Close()
	// Once the run is over, a Send waiting for a live downstream would
	// hold the exit for up to PeerHorizon: with none live, the socket
	// closes and its chunks count as dropped.
	closeIfDead := func() {
		select {
		case <-done:
			if push.Live() == 0 {
				push.Close()
			}
		default:
		}
	}
	push.OnPeerDown = func(string) {
		reg.Counter(CtrPeerDeaths).Inc()
		closeIfDead()
	}
	push.OnResend = func(msg msgq.Message) {
		reg.Counter(CtrReroutes).Inc()
		if c, _, err := decodeHeader(msg[0]); err == nil {
			// Capped per-stream series: folds into "reroutes_stream_other"
			// past the registry's stream cap.
			reg.StreamCounter("reroutes", c.Stream).Inc()
		}
	}
	for _, peer := range opts.Downstream {
		push.Connect(peer)
	}
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
						if push.Disconnect(ch.Addr) {
							reg.Counter(CtrPeersRemoved).Inc()
							closeIfDead()
						}
					} else if push.Connect(ch.Addr) {
						reg.Counter(CtrPeersAdded).Inc()
					}
				}
			}
		}()
	}

	// Intake closes first when the run ends: the upstream socket and the
	// relay queue shut, and egress relays what the queue holds while a
	// downstream is live. Before streaming starts there is nothing to
	// relay, so the downstream socket closes too, ending the start-up wait.
	relayQ := queue.New[msgq.Message](opts.QueueCap)
	watchQueue(reg, "relayq", relayQ)
	streaming := make(chan struct{})
	go func() {
		<-done
		pull.Close()
		relayQ.Close()
		select {
		case <-streaming:
			closeIfDead()
		default:
			push.Close()
		}
	}()
	if err := push.WaitLiveTimeout(opts.MinDownstream, opts.PeerHorizon); err != nil {
		if err == msgq.ErrClosed {
			return nil // stopped before streaming began
		}
		return fmt.Errorf("pipeline: forwarder start-up: %w", err)
	}
	close(streaming)

	// Health monitor: the survival floor is about downstream count, not
	// about any one chunk's fate. A relay running with fewer live
	// downstreams than MinDownstream past the horizon aborts even while
	// the survivors still accept chunks — the operator asked for that
	// much redundancy, and silently running degraded is how the next
	// death loses data.
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
			if push.Live() >= minLive {
				deficitSince = time.Time{}
				continue
			}
			now := time.Now()
			if deficitSince.IsZero() {
				deficitSince = now
				continue
			}
			if now.Sub(deficitSince) >= opts.PeerHorizon {
				healthErr <- fmt.Errorf("pipeline: forwarder below %d live downstream lanes for %v", minLive, opts.PeerHorizon)
				stopAll()
				return
			}
		}
	}()

	// Intake: pull from upstream into the relay queue. The last intake
	// worker out closes it, so egress drains what intake accepted.
	dropped := reg.Counter(CtrRelayDropped)
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
			emit: func(msg msgq.Message) bool {
				if relayQ.Put(msg) != nil {
					dropped.Inc()
					return false
				}
				return true
			},
		}
	})
	// Egress: push downstream. The chunk that meets Expect (never,
	// without one) stops the relay.
	var forwarded atomic.Int64
	start(n, egress, nil, func(*Worker, *stageObserver) stageLoop[msgq.Message, msgq.Message] {
		return stageLoop[msgq.Message, msgq.Message]{
			next: relayQ.Get,
			work: func(msg msgq.Message) (msgq.Message, result, error) {
				if err := push.Send(msg); err != nil {
					dropped.Inc()
					if err != msgq.ErrClosed { // closed: stopped with no downstream live
						err = fmt.Errorf("forwarder egress: %w", err)
					}
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
		dropped.Inc()
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
