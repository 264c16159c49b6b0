package faults

// Topology events: the churn counterpart of the connection/link fault
// model above. Where a Plan breaks one endpoint's writes and a
// LinkSchedule degrades one link's capacity, a TopoSchedule describes
// the cluster itself changing shape mid-stream — nodes crashing and
// rejoining, links going dark — as a tick-stamped event list in the
// style of the OLSR simulation's topology trace files. The same
// schedule drives both substrates:
//
//   - simulator mode: cluster.ApplyTopology compiles node/link down
//     windows into capacity-0 LinkSchedules on every link touching the
//     named node, fully deterministic under the discrete-event engine;
//   - real mode: RunTopo replays the schedule on the wall clock and the
//     harness's action callback kills or restarts live endpoints
//     (closing a relay's Stop channel, re-binding its listener).

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// TopoKind is the kind of a topology event.
type TopoKind int

// Topology event kinds. Down events open an outage for the named node
// or link; the matching Up event closes it.
const (
	NodeDown TopoKind = iota
	NodeUp
	LinkDown
	LinkUp
)

func (k TopoKind) String() string {
	switch k {
	case NodeDown:
		return "NODEDOWN"
	case NodeUp:
		return "NODEUP"
	case LinkDown:
		return "LINKDOWN"
	case LinkUp:
		return "LINKUP"
	}
	return fmt.Sprintf("faults.TopoKind(%d)", int(k))
}

// IsDown reports whether the kind opens an outage.
func (k TopoKind) IsDown() bool { return k == NodeDown || k == LinkDown }

// IsNode reports whether the kind names a node (vs a link).
func (k TopoKind) IsNode() bool { return k == NodeDown || k == NodeUp }

// TopoEvent is one tick-stamped topology change. T is in schedule time
// units: virtual seconds on the simulator, ticks scaled by RunTopo's
// scale in real mode.
type TopoEvent struct {
	T    float64
	Kind TopoKind
	Name string // node or link name
}

func (e TopoEvent) String() string {
	return fmt.Sprintf("%g %s %s", e.T, e.Kind, e.Name)
}

// TopoSchedule is a tick-stamped list of topology events. Normalize
// before compiling or replaying it.
type TopoSchedule []TopoEvent

// Normalize sorts the events by time (stable, so same-tick events keep
// their declared order) and rejects negative times and empty names,
// returning the schedule for chaining.
func (s TopoSchedule) Normalize() (TopoSchedule, error) {
	out := append(TopoSchedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	for i, e := range out {
		if e.T < 0 {
			return nil, fmt.Errorf("faults: topology event %d at negative time %g", i, e.T)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("faults: topology event %d has no node/link name", i)
		}
	}
	return out, nil
}

// Names returns the distinct node and link names the schedule touches,
// in first-appearance order.
func (s TopoSchedule) Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range s {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
	}
	return out
}

// End returns the time of the schedule's last event (0 for an empty
// schedule).
func (s TopoSchedule) End() float64 {
	end := 0.0
	for _, e := range s {
		if e.T > end {
			end = e.T
		}
	}
	return end
}

// Outages compiles the named node or link's down intervals: each Down
// event opens a window, the next matching Up closes it, and an outage
// never closed extends to +Inf. The returned windows are capacity-0
// LinkWindows sorted by start — the shape netsim.Link.SetFaults consumes
// (after merging with MergeOutages when several names share a link).
// The schedule must be normalized.
func (s TopoSchedule) Outages(name string) []LinkWindow {
	var out []LinkWindow
	openAt := math.Inf(1) // +Inf = not currently down
	for _, e := range s {
		if e.Name != name {
			continue
		}
		switch {
		case e.Kind.IsDown() && math.IsInf(openAt, 1):
			openAt = e.T
		case !e.Kind.IsDown() && !math.IsInf(openAt, 1):
			if e.T > openAt {
				out = append(out, LinkWindow{Start: openAt, End: e.T, Capacity: 0})
			}
			openAt = math.Inf(1)
		}
	}
	if !math.IsInf(openAt, 1) {
		out = append(out, LinkWindow{Start: openAt, End: math.Inf(1), Capacity: 0})
	}
	return out
}

// MergeOutages unions capacity-0 windows from several sources (a link's
// own events plus the node events of both its endpoints) into one
// normalized LinkSchedule: overlapping and adjacent outages coalesce,
// so the result passes LinkSchedule.Normalize's no-overlap rule.
func MergeOutages(windows ...[]LinkWindow) (LinkSchedule, error) {
	var all []LinkWindow
	for _, ws := range windows {
		all = append(all, ws...)
	}
	if len(all) == 0 {
		return nil, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	merged := LinkSchedule{all[0]}
	for _, w := range all[1:] {
		last := &merged[len(merged)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged.Normalize()
}

// ParseTopoSchedule reads a topology event file: one event per line,
//
//	<time> <NODEUP|NODEDOWN|LINKUP|LINKDOWN> <name>
//
// with '#' comments and blank lines ignored. The OLSR trace form
// "<tick> <UP|DOWN> <from> <to>" is also accepted and maps to a
// LINKUP/LINKDOWN of the link named "<from>-<to>". The result is
// normalized.
func ParseTopoSchedule(r io.Reader) (TopoSchedule, error) {
	var s TopoSchedule
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("faults: topology line %d: want '<t> <kind> <name>' or '<t> <UP|DOWN> <from> <to>', got %q", line, sc.Text())
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("faults: topology line %d: bad time %q: %v", line, fields[0], err)
		}
		var kind TopoKind
		name := ""
		switch up := strings.ToUpper(fields[1]); up {
		case "NODEDOWN":
			kind, name = NodeDown, fields[2]
		case "NODEUP":
			kind, name = NodeUp, fields[2]
		case "LINKDOWN":
			kind, name = LinkDown, fields[2]
		case "LINKUP":
			kind, name = LinkUp, fields[2]
		case "UP", "DOWN":
			if len(fields) != 4 {
				return nil, fmt.Errorf("faults: topology line %d: OLSR form needs '<t> %s <from> <to>'", line, up)
			}
			kind, name = LinkUp, fields[2]+"-"+fields[3]
			if up == "DOWN" {
				kind = LinkDown
			}
		default:
			return nil, fmt.Errorf("faults: topology line %d: unknown event kind %q", line, fields[1])
		}
		if len(fields) == 4 && name == fields[2] {
			return nil, fmt.Errorf("faults: topology line %d: %s takes one name", line, kind)
		}
		s = append(s, TopoEvent{T: t, Kind: kind, Name: name})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s.Normalize()
}

// Format renders the schedule in the file format ParseTopoSchedule
// reads, one event per line.
func (s TopoSchedule) Format() string {
	var b strings.Builder
	for _, e := range s {
		fmt.Fprintf(&b, "%g %s %s\n", e.T, e.Kind, e.Name)
	}
	return b.String()
}

// ChurnStorm configures GenChurnStorm.
type ChurnStorm struct {
	// Nodes are the candidate victims; every down event names one of
	// them (round-robin over a seeded shuffle, so each node is hit
	// before any repeats).
	Nodes []string
	// Downs is the number of node-down events to generate.
	Downs int
	// Horizon is the time span the storm occupies: every outage starts
	// in [0.1*Horizon, 0.8*Horizon) and ends before ~Horizon.
	Horizon float64
	// MinDown/MaxDown bound each outage's length (defaults 5% and 15%
	// of Horizon).
	MinDown, MaxDown float64
}

// GenChurnStorm generates a seeded, reproducible churn storm: Downs
// node-down events (each with its matching NodeUp) spread across the
// horizon. The same seed and config replay identically. Outages of the
// same node never overlap (a crashed node cannot crash again before it
// recovers); outages of different nodes may.
func GenChurnStorm(seed int64, cfg ChurnStorm) (TopoSchedule, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("faults: churn storm needs candidate nodes")
	}
	if cfg.Downs <= 0 {
		return nil, fmt.Errorf("faults: churn storm needs a positive down-event count")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: churn storm needs a positive horizon")
	}
	minDown, maxDown := cfg.MinDown, cfg.MaxDown
	if minDown <= 0 {
		minDown = 0.05 * cfg.Horizon
	}
	if maxDown < minDown {
		maxDown = 3 * minDown
	}
	rng := rand.New(rand.NewSource(seed))
	// Seeded shuffle, then round-robin: Downs >= len(Nodes) guarantees
	// every candidate (e.g. the relay) takes at least one hit.
	order := append([]string(nil), cfg.Nodes...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	lastUp := map[string]float64{}
	var s TopoSchedule
	for i := 0; i < cfg.Downs; i++ {
		name := order[i%len(order)]
		start := (0.1 + 0.7*rng.Float64()) * cfg.Horizon
		if up, ok := lastUp[name]; ok && start < up {
			start = up + 0.01*cfg.Horizon
		}
		dur := minDown + rng.Float64()*(maxDown-minDown)
		s = append(s, TopoEvent{T: start, Kind: NodeDown, Name: name})
		s = append(s, TopoEvent{T: start + dur, Kind: NodeUp, Name: name})
		lastUp[name] = start + dur
	}
	return s.Normalize()
}

// RunTopo replays a normalized schedule on the wall clock: the event at
// tick T fires T*scale after the call, and act observes the events in
// order, one at a time. It returns when the schedule is exhausted or
// stop closes, reporting how many events fired. act runs on RunTopo's
// goroutine, so a slow action (killing and awaiting an endpoint) delays
// later events rather than overlapping them — the same serialization
// the simulator's single event loop provides.
func RunTopo(sched TopoSchedule, scale time.Duration, stop <-chan struct{}, act func(TopoEvent)) int {
	if scale <= 0 {
		scale = time.Second
	}
	start := time.Now()
	fired := 0
	for _, e := range sched {
		at := start.Add(time.Duration(e.T * float64(scale)))
		if d := time.Until(at); d > 0 {
			select {
			case <-time.After(d):
			case <-stop:
				return fired
			}
		}
		select {
		case <-stop:
			return fired
		default:
		}
		act(e)
		fired++
	}
	return fired
}
