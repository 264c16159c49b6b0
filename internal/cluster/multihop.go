package cluster

import (
	"fmt"
	"math"
	"sort"

	"numastream/internal/faults"
	"numastream/internal/hw"
	"numastream/internal/netsim"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// MultiHop is a relayed deployment: sender nodes stream over per-sender
// access links into relay nodes, which forward over per-relay uplinks
// into one gateway. Every node and link is named, so a
// faults.TopoSchedule can crash and revive any of them by name —
// ApplyTopology compiles the events into per-link outage windows. The
// relays themselves are cut-through (netsim.NewPathVia): they charge
// their links' capacity and RTT but no CPU.
type MultiHop struct {
	Eng     *sim.Engine
	Gateway *runtime.SimNode
	Senders []Node
	// RelayNames lists the relay node names ("relay1", ...).
	RelayNames []string

	links   map[string]*namedLink
	relayOf []int // sender index -> relay index
}

// namedLink ties a link to the two node names it connects, so node
// churn can be compiled into outages on every link touching the node.
type namedLink struct {
	link *netsim.Link
	ends [2]string
}

// MultiHopOptions configures a relayed deployment build.
type MultiHopOptions struct {
	// Relays is the relay count (default 2). Senders are assigned
	// round-robin: sender i routes through relay i mod Relays.
	Relays int
	// AccessGbps is each sender's access-link capacity (default 100).
	AccessGbps float64
	// UplinkGbps is each relay's uplink capacity (default 200).
	UplinkGbps float64
	// RTT is the per-hop round-trip (default 0.45 ms; a two-hop chain
	// pays it twice).
	RTT float64
	// Seed offsets the per-node RNG seeds.
	Seed int64
}

func (o *MultiHopOptions) normalize() {
	if o.Relays <= 0 {
		o.Relays = 2
	}
	if o.AccessGbps <= 0 {
		o.AccessGbps = 100
	}
	if o.UplinkGbps <= 0 {
		o.UplinkGbps = 200
	}
	if o.RTT <= 0 {
		o.RTT = 0.45e-3
	}
}

// GatewayName is the node name of a MultiHop deployment's gateway.
const GatewayName = "gateway"

// NewMultiHop builds a relayed deployment: the given senders, opts.Relays
// relay nodes, and a lynxdtn-class gateway. Sender i's chunks cross
// access link "<sender>-relay<r>" then uplink "relay<r>-gateway", where
// r = i mod Relays.
func NewMultiHop(eng *sim.Engine, senders []SenderKind, opts MultiHopOptions) (*MultiHop, error) {
	opts.normalize()
	gw := runtime.NewSimNode(hw.NewLynxdtn(eng), opts.Seed+1)
	m := &MultiHop{Eng: eng, Gateway: gw, links: map[string]*namedLink{}}

	uplinks := make([]*netsim.Link, opts.Relays)
	for r := 0; r < opts.Relays; r++ {
		relay := fmt.Sprintf("relay%d", r+1)
		m.RelayNames = append(m.RelayNames, relay)
		name := relay + "-" + GatewayName
		uplinks[r] = netsim.NewLink(eng, name, hw.BytesPerSec(opts.UplinkGbps), opts.RTT)
		m.links[name] = &namedLink{link: uplinks[r], ends: [2]string{relay, GatewayName}}
	}

	for i, kind := range senders {
		var mach *hw.Machine
		switch kind {
		case Updraft:
			mach = hw.NewUpdraft(eng, fmt.Sprintf("updraft%d", i+1))
		case Polaris:
			mach = hw.NewPolaris(eng, fmt.Sprintf("polaris%d", i+1))
		default:
			return nil, fmt.Errorf("cluster: unknown sender kind %d", kind)
		}
		r := i % opts.Relays
		name := mach.Cfg.Name + "-" + m.RelayNames[r]
		access := netsim.NewLink(eng, name, hw.BytesPerSec(opts.AccessGbps), opts.RTT)
		m.links[name] = &namedLink{link: access, ends: [2]string{mach.Cfg.Name, m.RelayNames[r]}}

		sn := runtime.NewSimNode(mach, opts.Seed+int64(10+i))
		m.Senders = append(m.Senders, Node{
			Sim:  sn,
			Path: netsim.NewPathVia(eng, mach, hw.DataNIC(mach), []*netsim.Link{access, uplinks[r]}, gw.M, hw.DataNIC(gw.M)),
		})
		m.relayOf = append(m.relayOf, r)
	}
	return m, nil
}

// NodeNames returns every node name — senders, relays, gateway — in
// deployment order. Churn generators draw their victims from here.
func (m *MultiHop) NodeNames() []string {
	var out []string
	for _, s := range m.Senders {
		out = append(out, s.Sim.M.Cfg.Name)
	}
	out = append(out, m.RelayNames...)
	return append(out, GatewayName)
}

// LinkNames returns every link name in the deployment, sorted.
func (m *MultiHop) LinkNames() []string {
	out := make([]string, 0, len(m.links))
	for name := range m.links {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RelayOf returns the relay node name sender i routes through.
func (m *MultiHop) RelayOf(i int) string {
	return m.RelayNames[m.relayOf[i]]
}

// LinkInfo names one link and its endpoint nodes, in flow direction
// (From is the upstream end).
type LinkInfo struct {
	Name     string
	From, To string
}

// Links returns every link with its endpoints, sorted by name — the
// hop inventory a fleet aggregator attributes delay against.
func (m *MultiHop) Links() []LinkInfo {
	out := make([]LinkInfo, 0, len(m.links))
	for name, nl := range m.links {
		out = append(out, LinkInfo{Name: name, From: nl.ends[0], To: nl.ends[1]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetLinkFaults installs a capacity-fault schedule on one named link —
// the throttled-uplink drills' entry point, where ApplyTopology only
// expresses hard outages. The name must exist; silently dropping a
// throttle would turn a drill into a healthy run that still "passes".
func (m *MultiHop) SetLinkFaults(name string, sched faults.LinkSchedule) error {
	nl, ok := m.links[name]
	if !ok {
		return fmt.Errorf("cluster: no link %q (have %v)", name, m.LinkNames())
	}
	return nl.link.SetFaults(sched)
}

// ApplyTopology compiles a topology schedule onto the deployment's
// links: each link's outage set is the union of its own LinkDown/LinkUp
// windows and the NodeDown/NodeUp windows of both its endpoints (a
// crashed node takes every attached link dark). Event names that match
// no node or link here are an error — a churn plan naming a node the
// deployment lacks is a misconfigured drill, not a no-op. Every outage
// must close: an unmatched down event would stall the simulation
// forever.
func (m *MultiHop) ApplyTopology(sched faults.TopoSchedule) error {
	sched, err := sched.Normalize()
	if err != nil {
		return err
	}
	nodes := map[string]bool{}
	for _, n := range m.NodeNames() {
		nodes[n] = true
	}
	for _, name := range sched.Names() {
		if !nodes[name] && m.links[name] == nil {
			return fmt.Errorf("cluster: topology event names unknown node/link %q", name)
		}
	}
	for name, nl := range m.links {
		merged, err := faults.MergeOutages(
			sched.Outages(name),
			sched.Outages(nl.ends[0]),
			sched.Outages(nl.ends[1]),
		)
		if err != nil {
			return fmt.Errorf("cluster: link %s: %v", name, err)
		}
		for _, w := range merged {
			if math.IsInf(w.End, 1) {
				return fmt.Errorf("cluster: link %s has an unclosed outage from t=%g — every down event needs a matching up", name, w.Start)
			}
		}
		if err := nl.link.SetFaults(merged); err != nil {
			return fmt.Errorf("cluster: link %s: %v", name, err)
		}
	}
	return nil
}

// LinkDelay returns the named link's cumulative fault-inflicted delay
// (0 for an unknown name) — the per-link attribution of a churn storm's
// cost.
func (m *MultiHop) LinkDelay(name string) float64 {
	if nl, ok := m.links[name]; ok {
		return nl.link.FaultDelay()
	}
	return 0
}

// FaultDelay sums the cumulative fault-inflicted delay across all
// links, the deployment-wide cost of the churn storm. The sum runs in
// link-name order: float addition is not associative, so summing in map
// order would change the last bits from run to run.
func (m *MultiHop) FaultDelay() float64 {
	total := 0.0
	for _, name := range m.LinkNames() {
		total += m.links[name].link.FaultDelay()
	}
	return total
}

// Stream wires one stream from sender index i through its relay to the
// gateway.
func (m *MultiHop) Stream(i int, spec runtime.StreamSpec, senderCfg, receiverCfg runtime.NodeConfig) (*runtime.Stream, error) {
	if i < 0 || i >= len(m.Senders) {
		return nil, fmt.Errorf("cluster: no sender %d (have %d)", i, len(m.Senders))
	}
	return &runtime.Stream{
		Spec:        spec,
		Sender:      m.Senders[i].Sim,
		SenderCfg:   senderCfg,
		Receiver:    m.Gateway,
		ReceiverCfg: receiverCfg,
		Path:        m.Senders[i].Path,
	}, nil
}

// Run executes the given streams on the deployment's engine.
func (m *MultiHop) Run(streams []*runtime.Stream) error {
	return (&runtime.Runner{Eng: m.Eng, Streams: streams}).Run()
}
