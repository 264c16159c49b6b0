package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"numastream/internal/cluster"
	"numastream/internal/faults"
	"numastream/internal/metrics"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"

	hostnuma "numastream/internal/numa"
)

// Churn drills: the topology-event counterpart of the degraded-mode
// harnesses. Where degraded mode breaks one link or one connection,
// these change the cluster's shape mid-stream — nodes crashing and
// rejoining on a tick-stamped schedule — and prove the runtime survives
// it with exact accounting. The simulator drill replays a seeded storm
// on a multi-hop deployment and attributes the inflicted delay to named
// events; the real-mode drill kills and restarts live relay processes
// on the wall clock and uses the receiver's exactly-once ledger to show
// every chunk arrived exactly once despite the deaths.

// ChurnLinkDelay is one link's share of the storm's inflicted delay.
type ChurnLinkDelay struct {
	Name  string
	Delay float64 // seconds of extra link service time
}

// ChurnEventImpact attributes one down event to the links it darkened.
type ChurnEventImpact struct {
	Event faults.TopoEvent
	Links []string // links taken dark by this event
}

// ChurnSimResult is one simulated churn-storm run.
type ChurnSimResult struct {
	Seed       int64
	Schedule   faults.TopoSchedule
	NodeDowns  int
	RelayDowns int // down events that hit a relay
	BaseFinish float64
	Finish     float64
	FaultDelay float64 // summed across all links
	PerLink    []ChurnLinkDelay
	Impacts    []ChurnEventImpact
}

// ChurnSim streams two senders through two relays into the gateway,
// first healthy to learn the finish time, then under a seeded churn
// storm that crashes every sender and relay at least once (four
// node-down events across the healthy horizon — so at least one relay
// dies mid-stream and its sender's whole path goes dark). The
// simulation is deterministic: the same seed replays byte-for-byte.
// A non-nil sched overrides the generated storm (e.g. a parsed
// topology-event file); its names must match the deployment's.
func ChurnSim(seed int64, sched faults.TopoSchedule) (ChurnSimResult, error) {
	h := hopSpec{name: "churn", senders: []cluster.SenderKind{cluster.Updraft, cluster.Polaris}, seed: seed}
	base, err := runHopCell(h)
	if err != nil {
		return ChurnSimResult{}, err
	}
	mh := base.mh
	if sched == nil {
		victims := append([]string(nil), mh.RelayNames...)
		for _, s := range mh.Senders {
			victims = append(victims, s.Sim.M.Cfg.Name)
		}
		sched, err = faults.GenChurnStorm(seed, faults.ChurnStorm{
			Nodes:   victims,
			Downs:   len(victims), // round-robin: every victim, incl. both relays
			Horizon: 0.9 * base.finish,
		})
		if err != nil {
			return ChurnSimResult{}, err
		}
	}
	h.topo = sched
	faulted, err := runHopCell(h)
	if err != nil {
		return ChurnSimResult{}, err
	}

	res := ChurnSimResult{
		Seed:       seed,
		Schedule:   sched,
		BaseFinish: base.finish,
		Finish:     faulted.finish,
		FaultDelay: faulted.mh.FaultDelay(),
	}
	relays := map[string]bool{}
	for _, r := range faulted.mh.RelayNames {
		relays[r] = true
	}
	for _, e := range sched {
		if !e.Kind.IsDown() {
			continue
		}
		if e.Kind == faults.NodeDown {
			res.NodeDowns++
			if relays[e.Name] {
				res.RelayDowns++
			}
		}
		res.Impacts = append(res.Impacts, ChurnEventImpact{
			Event: e,
			Links: linksTouching(faulted.mh.LinkNames(), e),
		})
	}
	for _, name := range faulted.mh.LinkNames() {
		res.PerLink = append(res.PerLink, ChurnLinkDelay{Name: name, Delay: faulted.mh.LinkDelay(name)})
	}
	return res, nil
}

// linksTouching resolves the links a down event darkens: the named link
// itself, or — for a node event — every link with the node as an
// endpoint (link names are "<a>-<b>" and node names carry no hyphen).
// Sorted links give sorted results.
func linksTouching(links []string, e faults.TopoEvent) []string {
	var out []string
	for _, l := range links {
		if l == e.Name {
			out = append(out, l)
			continue
		}
		if e.Kind.IsNode() {
			for _, end := range strings.Split(l, "-") {
				if end == e.Name {
					out = append(out, l)
					break
				}
			}
		}
	}
	return out
}

// FormatChurnSim renders the simulated churn storm.
func FormatChurnSim(r ChurnSimResult) string {
	out := "Churn-storm simulation (2 senders -> 2 relays -> gateway, multi-hop)\n"
	out += fmt.Sprintf("  seed %d: %d node-down events (%d on relays)\n", r.Seed, r.NodeDowns, r.RelayDowns)
	for _, im := range r.Impacts {
		out += fmt.Sprintf("  %8.4fs %-8s %-10s darkens %s\n",
			im.Event.T, im.Event.Kind, im.Event.Name, strings.Join(im.Links, ", "))
	}
	out += fmt.Sprintf("  healthy finish %.4fs, churned finish %.4fs (+%.1f%%), fault delay %.4fs\n",
		r.BaseFinish, r.Finish, 100*(r.Finish-r.BaseFinish)/r.BaseFinish, r.FaultDelay)
	for _, l := range r.PerLink {
		out += fmt.Sprintf("    link %-18s +%.4fs\n", l.Name, l.Delay)
	}
	return out
}

// ChurnStreamStat is one stream's exactly-once accounting.
type ChurnStreamStat struct {
	ID        uint32
	Delivered int64
	Dups      int64
	Failovers int64 // relay connections this stream's sender lost
}

// ChurnRealResult is one real-mode churn drill.
type ChurnRealResult struct {
	Relays, Streams, Chunks int
	Passes                  int // send passes until the ledger closed
	EventsFired             int
	Kills, Restarts         int
	Sent                    int64 // chunks pushed across all passes (incl. resends)
	Delivered               int64 // unique chunks the ledger admitted
	DupDrops                int64
	Holes                   int   // unfilled seqs at the end — 0 on success
	Abandoned               int64 // ledger windows overflowed — 0 on success
	SeqGaps, SeqLate        int64
	Failovers               int64 // sender-side relay connection deaths
	Quarantined             int64
	RelayDropped            int64 // chunks a dying relay accepted but dropped
	PerStream               []ChurnStreamStat
}

// churnRealSchedule is the default real-mode storm: three relay
// crashes (both relays hit, relay1 twice), strictly serialized so the
// sender always has a live lane. Ticks are scaled by churnTickScale.
func churnRealSchedule() faults.TopoSchedule {
	s := faults.TopoSchedule{
		{T: 1, Kind: faults.NodeDown, Name: "relay1"},
		{T: 3, Kind: faults.NodeUp, Name: "relay1"},
		{T: 4, Kind: faults.NodeDown, Name: "relay2"},
		{T: 6, Kind: faults.NodeUp, Name: "relay2"},
		{T: 7, Kind: faults.NodeDown, Name: "relay1"},
		{T: 9, Kind: faults.NodeUp, Name: "relay1"},
	}
	out, _ := s.Normalize()
	return out
}

const (
	churnRelays     = 2
	churnStreams    = 2
	churnTickScale  = 60 * time.Millisecond
	churnMaxPasses  = 8
	churnDrainQuiet = 300 * time.Millisecond
)

// realRelay is one live forwarder the storm can kill and restart.
type realRelay struct {
	name string
	addr string // fixed across restarts, so senders redial back in
	stop chan struct{}
	done chan error
}

// ChurnLoopback runs the real-mode churn drill: per-stream senders push
// through two relay forwarders into one exactly-once gateway, while a
// topology schedule kills and restarts the relays on the wall clock.
// Chunks buffered inside a dying relay are lost in flight; the drill
// then re-sends whole passes (sequence numbers restart at zero) until
// the gateway's ledger shows every (stream, seq) delivered — duplicates
// dropped, holes filled, nothing lost. A nil sched uses the default
// three-crash storm; a custom one may only name the relays.
func ChurnLoopback(chunks, chunkBytes int, sched faults.TopoSchedule) (ChurnRealResult, error) {
	return ChurnLoopbackInto(nil, chunks, chunkBytes, sched)
}

// ChurnLoopbackInto is ChurnLoopback recording into a shared registry
// (nil allocates a private one), so a telemetry server attached to reg
// watches the churn counters live.
func ChurnLoopbackInto(reg *metrics.Registry, chunks, chunkBytes int, sched faults.TopoSchedule) (ChurnRealResult, error) {
	if chunks < 8 || chunkBytes < 1 {
		return ChurnRealResult{}, fmt.Errorf("experiments: churn drill needs >= 8 chunks")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if sched == nil {
		sched = churnRealSchedule()
	}
	var err error
	if sched, err = sched.Normalize(); err != nil {
		return ChurnRealResult{}, err
	}
	known := map[string]bool{}
	for r := 1; r <= churnRelays; r++ {
		known[fmt.Sprintf("relay%d", r)] = true
	}
	for _, e := range sched {
		if !e.Kind.IsNode() || !known[e.Name] {
			return ChurnRealResult{}, fmt.Errorf("experiments: real-mode churn can only crash relays, got %q", e)
		}
	}
	topo, _ := hostnuma.Discover()
	ledger := pipeline.NewLedger(reg, 0)

	// Gateway: open-ended exactly-once receiver; the shared ledger keeps
	// dedup state across every send pass.
	gwStop := make(chan struct{})
	gwReady := make(chan string, 1)
	gwErr := make(chan error, 1)
	go func() {
		gwErr <- pipeline.RunReceiver(pipeline.ReceiverOptions{
			Cfg:  receiver("churn-gw", group(runtime.Receive, 2, runtime.OS()), group(runtime.Decompress, 2, runtime.OS())),
			Topo: topo, Bind: "127.0.0.1:0",
			Stop: gwStop, Ready: gwReady, Metrics: reg,
			ExactlyOnce: true, Ledger: ledger,
		})
	}()
	gwAddr := <-gwReady

	startRelay := func(name, bind string) (*realRelay, error) {
		r := &realRelay{name: name, stop: make(chan struct{}), done: make(chan error, 1)}
		ready := make(chan string, 1)
		go func() {
			r.done <- pipeline.RunForwarder(pipeline.ForwarderOptions{
				Cfg:  receiver(name, group(runtime.Receive, 1, runtime.OS())),
				Topo: topo, Bind: bind,
				Downstream:    []string{gwAddr},
				MinDownstream: 1,
				PeerHorizon:   10 * time.Second,
				Stop:          r.stop,
				Metrics:       reg,
				Ready:         ready,
			})
		}()
		select {
		case r.addr = <-ready:
			return r, nil
		case err := <-r.done:
			if err == nil {
				err = fmt.Errorf("experiments: relay %s exited before binding", name)
			}
			return nil, err
		}
	}

	res := ChurnRealResult{Relays: churnRelays, Streams: churnStreams, Chunks: chunks}
	relays := make([]*realRelay, churnRelays)
	var relayAddrs []string
	for i := range relays {
		r, err := startRelay(fmt.Sprintf("relay%d", i+1), "127.0.0.1:0")
		if err != nil {
			close(gwStop)
			<-gwErr
			return res, err
		}
		relays[i] = r
		relayAddrs = append(relayAddrs, r.addr)
	}

	// The storm, on its own goroutine: kills close a relay's Stop and
	// await its exit; restarts rebind the same address, so the senders'
	// redial loops find the relay again without reconfiguration.
	var churnMu sync.Mutex
	stormStop := make(chan struct{})
	stormDone := make(chan int, 1)
	go func() {
		stormDone <- faults.RunTopo(sched, churnTickScale, stormStop, func(e faults.TopoEvent) {
			idx := 0
			fmt.Sscanf(e.Name, "relay%d", &idx)
			idx--
			churnMu.Lock()
			defer churnMu.Unlock()
			r := relays[idx]
			if e.Kind == faults.NodeDown {
				close(r.stop)
				<-r.done // lost whatever was buffered inside
				res.Kills++
				return
			}
			// Restart on the same port; the old listener needs a moment to
			// release it.
			for attempt := 0; ; attempt++ {
				nr, err := startRelay(r.name, r.addr)
				if err == nil {
					relays[idx] = nr
					res.Restarts++
					return
				}
				if attempt >= 50 {
					return // leave it dead; the drill reports the holes
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}()

	// sendPass streams every stream once. A non-zero throttle paces the
	// source so the pass spans the storm — kills must land mid-stream,
	// not between passes.
	sendPass := func(throttle time.Duration) error {
		errs := make(chan error, churnStreams)
		for s := 0; s < churnStreams; s++ {
			go func(s int) {
				errs <- pipeline.RunSender(pipeline.SenderOptions{
					Cfg:  sender(fmt.Sprintf("churn-src%d", s), group(runtime.Compress, 1, runtime.OS()), group(runtime.Send, 1, runtime.OS())),
					Topo: topo, Peers: relayAddrs, StreamID: uint32(s),
					Metrics:     reg,
					SendHorizon: 15 * time.Second,
					Source:      repeatSource(chunks, mixedPayload(chunkBytes), throttle),
				})
			}(s)
		}
		for s := 0; s < churnStreams; s++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		res.Sent += int64(churnStreams * chunks)
		return nil
	}

	complete := func() bool {
		for s := 0; s < churnStreams; s++ {
			id := uint32(s)
			if ledger.DeliveredStream(id) != int64(chunks) || len(ledger.Holes(id)) != 0 {
				return false
			}
		}
		return true
	}
	// awaitDrain waits for in-flight chunks (sender -> relay -> gateway)
	// to settle: the ledger's arrival count — deliveries and duplicate
	// drops both — must hold still for a quiet period. Completeness is
	// NOT an early exit: a re-send pass's duplicates are still in flight
	// when the ledger first looks complete, and tearing down then would
	// discard them inside the relays, uncounted.
	awaitDrain := func() {
		progress := func() int64 { return ledger.Delivered() + ledger.Dups() }
		last, lastChange := progress(), time.Now()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if n := progress(); n != last {
				last, lastChange = n, time.Now()
			} else if time.Since(lastChange) > churnDrainQuiet {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	teardown := func() {
		close(stormStop)
		res.EventsFired = <-stormDone
		churnMu.Lock()
		for _, r := range relays {
			select {
			case <-r.stop:
			default:
				close(r.stop)
			}
			<-r.done
		}
		churnMu.Unlock()
		close(gwStop)
		<-gwErr
	}

	// Pass 1 streams under the storm. Every later pass re-sends the whole
	// stream (seqs restart at zero): already-delivered chunks drop as
	// duplicates, lost ones fill their holes — at least two passes always
	// run, so the duplicate path is always exercised.
	// Pace pass 1 to cover the whole schedule, with a little slack past
	// the last event.
	throttle := time.Duration(1.1*sched.End()*float64(churnTickScale)) / time.Duration(chunks)
	for pass := 1; pass <= churnMaxPasses; pass++ {
		res.Passes = pass
		if err := sendPass(throttle); err != nil {
			teardown()
			return res, fmt.Errorf("churn send pass %d: %w", pass, err)
		}
		throttle = 0
		if pass == 1 {
			// Let the storm finish before judging completeness: a relay
			// still down would hold its replacement chunks hostage.
			res.EventsFired = <-stormDone
			stormDone <- res.EventsFired
		}
		awaitDrain()
		if pass >= 2 && complete() {
			break
		}
	}
	teardown()

	res.Delivered = ledger.Delivered()
	res.DupDrops = ledger.Dups()
	res.Holes = ledger.TotalHoles()
	res.Abandoned = ledger.Abandoned()
	res.SeqGaps = reg.CounterValue(pipeline.CtrSeqGaps)
	res.SeqLate = reg.CounterValue(pipeline.CtrSeqLate)
	res.Failovers = reg.CounterValue(pipeline.CtrRelayFailovers)
	res.Quarantined = reg.CounterValue(pipeline.CtrQuarantined)
	res.RelayDropped = reg.CounterValue(pipeline.CtrRelayDropped)
	for s := 0; s < churnStreams; s++ {
		id := uint32(s)
		res.PerStream = append(res.PerStream, ChurnStreamStat{
			ID:        id,
			Delivered: ledger.DeliveredStream(id),
			Dups:      reg.CounterValue(fmt.Sprintf("dup_drops_stream_%d", id)),
			Failovers: reg.CounterValue(fmt.Sprintf("relay_failovers_stream_%d", id)),
		})
	}
	return res, nil
}

// FormatChurnReal renders the real-mode churn drill.
func FormatChurnReal(r ChurnRealResult) string {
	out := "Churn drill, real loopback (senders -> 2 relays -> exactly-once gateway)\n"
	out += fmt.Sprintf("  storm: %d events fired, %d relay kills, %d restarts\n",
		r.EventsFired, r.Kills, r.Restarts)
	out += fmt.Sprintf("  %d streams x %d chunks in %d passes: sent %d, delivered %d unique, %d duplicates dropped\n",
		r.Streams, r.Chunks, r.Passes, r.Sent, r.Delivered, r.DupDrops)
	out += fmt.Sprintf("  holes %d, abandoned %d, quarantined %d (exactly-once: every loss healed)\n",
		r.Holes, r.Abandoned, r.Quarantined)
	out += fmt.Sprintf("  churn cost: %d sender failovers, %d seq gaps (+%d late), %d chunks dropped in dying relays\n",
		r.Failovers, r.SeqGaps, r.SeqLate, r.RelayDropped)
	for _, s := range r.PerStream {
		out += fmt.Sprintf("    stream %d: delivered %d, dup_drops %d, failovers %d\n",
			s.ID, s.Delivered, s.Dups, s.Failovers)
	}
	return out
}
