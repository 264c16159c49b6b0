package experiments

import (
	"fmt"
	"time"

	"numastream/internal/cluster"
	"numastream/internal/faults"
	"numastream/internal/fleet"
	"numastream/internal/obs"
	"numastream/internal/runtime"
)

// Fleet drills: the cluster-observability counterpart of the churn and
// degraded harnesses. Instead of asserting delivery accounting, these
// assert the *diagnosis*: a multi-hop simulation with per-node obs
// engines feeding a fleet aggregator must produce a cluster verdict
// naming the node and hop that actually limit it, fire the declared SLO
// alert while the injury is live, resolve it when the injury lifts, and
// leave a profile artifact behind. Both drills run on virtual time and
// are fully deterministic.

// fleetSampleDivisor sets the sampling cadence: healthy-finish / this
// many windows.
const fleetSampleDivisor = 40

// FleetSimResult is one simulated fleet-observability run.
type FleetSimResult struct {
	Drill         string  // "throttled-uplink" or "churn-alert"
	BaseFinish    float64 // healthy finish time (schedules derive from it)
	Finish        float64 // injured finish time
	ThrottledLink string  // throttled-uplink drill: the injured hop
	Schedule      faults.LinkSchedule
	Topo          faults.TopoSchedule
	Windows       []fleet.ClusterWindow
	Regimes       []obs.Regime
	Alerts        []fleet.Alert
	Report        fleet.Report
}

// FleetThrottledUplinkSim streams two updraft senders through two
// relays into the gateway, first healthy to learn the finish time, then
// with relay1's uplink throttled to 5% capacity through the middle of
// the run. Per-node obs engines (one per sender, one for the gateway)
// feed a fleet aggregator that also watches every hop's fault delay;
// the drill's contract is the acceptance criterion of the cluster
// layer: the cluster verdict during the throttle names relay1's uplink
// as the dominant bottleneck, the fair-share SLO fires exactly one
// alert that resolves after the throttle lifts, and the firing captured
// a profile artifact into profileDir (kept out of the artifact dir
// entirely when profileDir is empty).
func FleetThrottledUplinkSim(profileDir string) (FleetSimResult, error) {
	senders := []cluster.SenderKind{cluster.Updraft, cluster.Updraft}
	h := hopSpec{name: "fleet", senders: senders, seed: 9}
	base, err := runHopCell(h)
	if err != nil {
		return FleetSimResult{}, err
	}
	t := base.finish
	const link = "relay1-gateway"
	sched := faults.LinkSchedule{{Start: 0.10 * t, End: 0.90 * t, Capacity: 0.05}}

	// The fair-share floor is tuned to the signal's shape: the starved
	// stream trickles at ~5% of its fair rate, so mid-throttle the floor
	// sits far below threshold, but single-window blips (a window where
	// the trickle delivered nothing and the stream reads inactive) must
	// not resolve-and-refire — hence the long clear run.
	slos := []fleet.SLO{{
		Name: "fair-share-floor", Metric: "fair_share", Op: ">=", Threshold: 0.6,
		BurnWindow: 4, FireBurn: 0.5, ClearWindows: 6,
	}}
	agg, sampler := newFleetObserver("throttled-uplink-sim", senders, slos, profileDir)
	h.throttleLink, h.throttle = link, sched
	h.every, h.onSample = base.finish/fleetSampleDivisor, sampler
	cell, err := runHopCell(h)
	if err != nil {
		return FleetSimResult{}, err
	}

	res := FleetSimResult{
		Drill:         "throttled-uplink",
		BaseFinish:    base.finish,
		Finish:        cell.finish,
		ThrottledLink: link,
		Schedule:      sched,
		Windows:       agg.Windows(),
		Regimes:       agg.Regimes(),
		Alerts:        agg.Alerts(),
		Report:        agg.Report(),
	}
	return res, nil
}

// FleetChurnAlertSim runs the storm counterpart: an updraft and a
// polaris sender through two relays, with relay1 crashed through
// [25%, 45%) of the healthy run. The hop-delay availability SLO must
// fire while the node is dark (its links bleed fault delay) and resolve
// once the backlog drains — the alert lifecycle the tentpole's churn
// criterion demands.
func FleetChurnAlertSim(profileDir string) (FleetSimResult, error) {
	senders := []cluster.SenderKind{cluster.Updraft, cluster.Polaris}
	h := hopSpec{name: "fleet", senders: senders, seed: 9}
	base, err := runHopCell(h)
	if err != nil {
		return FleetSimResult{}, err
	}
	t := base.finish
	topo := faults.TopoSchedule{
		{T: 0.25 * t, Kind: faults.NodeDown, Name: "relay1"},
		{T: 0.45 * t, Kind: faults.NodeUp, Name: "relay1"},
	}
	topo, err = topo.Normalize()
	if err != nil {
		return FleetSimResult{}, err
	}

	// An outage's fault delay lands as one huge spike in the window
	// where the first blocked transfer is stretched across the dark
	// interval (later transfers queue behind it on the link FIFO and
	// accrue nothing), so the availability SLO is a fast-burn pager: one
	// breached window fires.
	slos := []fleet.SLO{{
		Name: "hop-availability", Metric: "hop_delay", Op: "<=", Threshold: 0,
		BurnWindow: 4, FireBurn: 0.25, ClearWindows: 2,
	}}
	agg, sampler := newFleetObserver("churn-alert-sim", senders, slos, profileDir)
	h.topo = topo
	h.every, h.onSample = base.finish/fleetSampleDivisor, sampler
	cell, err := runHopCell(h)
	if err != nil {
		return FleetSimResult{}, err
	}

	res := FleetSimResult{
		Drill:      "churn-alert",
		BaseFinish: base.finish,
		Finish:     cell.finish,
		Topo:       topo,
		Windows:    agg.Windows(),
		Regimes:    agg.Regimes(),
		Alerts:     agg.Alerts(),
		Report:     agg.Report(),
	}
	return res, nil
}

// newFleetObserver assembles the observability plane of a fleet drill:
// one obs engine per node fed synthesized snapshots, a fleet aggregator
// over those engines plus the deployment's hop stats, and (when
// profileDir is set) a regime/alert-triggered profiler. The returned
// sampler is handed to runHopCell.
func newFleetObserver(name string, senders []cluster.SenderKind, slos []fleet.SLO, profileDir string) (*fleet.Aggregator, hopSample) {
	opts := fleet.Options{Fleet: name, SLOs: slos}
	if profileDir != "" {
		// A short CPU sample: the capture blocks the (virtual-time)
		// sampler on the wall clock, and the artifact's existence — not
		// its depth — is the drill's contract.
		opts.Profiler = &fleet.Profiler{Dir: profileDir, CPUDuration: 20 * time.Millisecond}
	}
	agg := fleet.New(opts)

	engines := map[string]*obs.Engine{}
	source := func(node string, role fleet.Role) *obs.Engine {
		eng := obs.NewEngine(nil, obs.Options{Node: node})
		engines[node] = eng
		agg.AddSource(fleet.EngineSource(node, role, eng))
		return eng
	}
	names := fleetSenderNames(senders)
	for _, n := range names {
		source(n, fleet.RoleSender)
	}
	source(cluster.GatewayName, fleet.RoleGateway)

	hopsSet := false
	sampler := func(t float64, mh *cluster.MultiHop, streams []*runtime.Stream, raw, items []int64) {
		if !hopsSet {
			hopsSet = true
			links := mh.Links()
			agg.SetHops(func() []fleet.HopStat {
				out := make([]fleet.HopStat, 0, len(links))
				for _, l := range links {
					out = append(out, fleet.HopStat{Link: l.Name, From: l.From, To: l.To, DelaySecs: mh.LinkDelay(l.Name)})
				}
				return out
			})
		}
		for i, st := range streams {
			engines[names[i]].Observe(fleetSenderSnapshot(t, st))
		}
		engines[cluster.GatewayName].Observe(fleetGatewaySnapshot(t, streams, raw, items))
		agg.ObserveAt(t)
	}
	return agg, sampler
}

// fleetSenderNames mirrors cluster.NewMultiHop's machine naming.
func fleetSenderNames(senders []cluster.SenderKind) []string {
	names := make([]string, len(senders))
	for i, k := range senders {
		switch k {
		case cluster.Polaris:
			names[i] = fmt.Sprintf("polaris%d", i+1)
		default:
			names[i] = fmt.Sprintf("updraft%d", i+1)
		}
	}
	return names
}

// fleetSenderSnapshot synthesizes sender node i's obs snapshot: its
// stream's compress- and send-side queues, on virtual time.
func fleetSenderSnapshot(t float64, st *runtime.Stream) obs.Snapshot {
	s := obs.Snapshot{T: t, Gauges: map[string]float64{}}
	addQueues(s, st, "compq", "sendq")
	return s
}

// fleetGatewaySnapshot synthesizes the gateway's obs snapshot: summed
// receive-side queues plus total and per-stream delivery meters — the
// same series names a real gateway registry produces, so the fleet
// scoreboard and fair-share signal read identically in both modes.
func fleetGatewaySnapshot(t float64, streams []*runtime.Stream, raw, items []int64) obs.Snapshot {
	s := obs.Snapshot{
		T:      t,
		Meters: map[string]obs.MeterState{},
		Gauges: map[string]float64{},
	}
	var totB, totI int64
	for i, st := range streams {
		s.Meters[fmt.Sprintf("delivered_stream_%d", i)] = obs.MeterState{Bytes: raw[i], Items: items[i]}
		totB += raw[i]
		totI += items[i]
		addQueues(s, st, "recvq", "decq")
	}
	s.Meters["delivered"] = obs.MeterState{Bytes: totB, Items: totI}
	return s
}

// Check asserts the drill's contract — the acceptance criteria of the
// fleet layer, callable from tests and `make fleet-drill` alike.
func (r FleetSimResult) Check() error {
	if len(r.Windows) == 0 {
		return fmt.Errorf("fleet drill %s: no cluster windows", r.Drill)
	}
	switch r.Drill {
	case "throttled-uplink":
		if r.Report.Dominant != obs.VerdictWireBound || r.Report.DominantNode != "relay1" || r.Report.DominantStage != r.ThrottledLink {
			return fmt.Errorf("fleet drill: dominant = %s@%s:%s, want %s@relay1:%s",
				r.Report.Dominant, r.Report.DominantNode, r.Report.DominantStage, obs.VerdictWireBound, r.ThrottledLink)
		}
		if len(r.Alerts) != 1 {
			return fmt.Errorf("fleet drill: %d alerts, want 1", len(r.Alerts))
		}
		a := r.Alerts[0]
		if a.Fired != 1 || a.Resolved != 1 || a.State != fleet.AlertOK {
			return fmt.Errorf("fleet drill: alert %s fired %d resolved %d state %s, want exactly one fire that resolved",
				a.SLO.String(), a.Fired, a.Resolved, a.State)
		}
	case "churn-alert":
		if len(r.Alerts) != 1 {
			return fmt.Errorf("fleet drill: %d alerts, want 1", len(r.Alerts))
		}
		a := r.Alerts[0]
		if a.Fired < 1 {
			return fmt.Errorf("fleet drill: availability alert never fired (%s)", a.SLO.String())
		}
		if a.State != fleet.AlertOK || a.Resolved != a.Fired {
			return fmt.Errorf("fleet drill: availability alert ended %s (fired %d resolved %d), want resolved",
				a.State, a.Fired, a.Resolved)
		}
	default:
		return fmt.Errorf("fleet drill: unknown drill %q", r.Drill)
	}
	return nil
}

// FormatFleetSim renders a fleet drill run.
func FormatFleetSim(r FleetSimResult) string {
	out := fmt.Sprintf("Fleet drill %q (multi-hop, per-node obs -> cluster aggregator)\n", r.Drill)
	if r.ThrottledLink != "" {
		for _, w := range r.Schedule {
			out += fmt.Sprintf("  throttle: %s to %.0f%% capacity over [%.4fs, %.4fs)\n",
				r.ThrottledLink, w.Capacity*100, w.Start, w.End)
		}
	}
	for _, e := range r.Topo {
		out += fmt.Sprintf("  topo: %8.4fs %-8s %s\n", e.T, e.Kind, e.Name)
	}
	out += fmt.Sprintf("  healthy finish %.4fs, injured finish %.4fs (+%.1f%%)\n",
		r.BaseFinish, r.Finish, 100*(r.Finish-r.BaseFinish)/r.BaseFinish)
	out += fmt.Sprintf("  cluster: dominant %s", r.Report.Dominant)
	if r.Report.DominantNode != "" {
		out += fmt.Sprintf(" at %s", r.Report.DominantNode)
		if r.Report.DominantStage != "" {
			out += fmt.Sprintf(" (%s)", r.Report.DominantStage)
		}
	}
	out += fmt.Sprintf(" across %d windows\n", len(r.Windows))
	for _, t := range r.Regimes {
		out += fmt.Sprintf("    t=%8.4fs  %s -> %s\n", t.T, t.From, t.To)
	}
	for _, a := range r.Alerts {
		out += fmt.Sprintf("  alert %-20s %-6s fired %d resolved %d\n", a.SLO.String(), a.State, a.Fired, a.Resolved)
	}
	for _, p := range r.Report.Profiles {
		out += fmt.Sprintf("  profile: %s\n", p)
	}
	return out
}
