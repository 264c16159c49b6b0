// Package trace records simulator activity as Chrome trace-event JSON
// (load the output at chrome://tracing or ui.perfetto.dev). Machines
// opt in by attaching a Tracer; every executed pipeline operation then
// becomes a duration event on its (machine, core) track, which makes
// placement pathologies — idle domains, oversubscribed cores, remote
// stalls — directly visible.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event is one Chrome trace duration event ("ph":"X"). An event may
// additionally participate in a *flow*: a directed arrow the Perfetto UI
// draws between spans on different tracks or processes (a chunk's "send"
// span on the sender linked to its "receive" span on the receiver). A
// span with FlowOut emits the flow-start point ("ph":"s") at its start
// timestamp; a span with FlowIn emits the terminating point ("ph":"f",
// binding point "e"). Both carry the same FlowID, which the caller
// derives from stable chunk identity (stream, sequence) — never from
// insertion order — so concurrent writers produce identical ids.
type Event struct {
	Name     string  // operation label, e.g. "decompress"
	Category string  // task class
	Start    float64 // virtual seconds
	Duration float64 // virtual seconds
	Process  string  // machine name
	Track    int     // core id
	Args     map[string]any

	FlowID  uint64 // nonzero: this span participates in flow FlowID
	FlowOut bool   // span is the flow's producing end
	FlowIn  bool   // span is the flow's consuming end
}

// Tracer accumulates events. Safe for concurrent use (real-mode
// pipelines share it across workers; the simulator is single-threaded
// but pays the lock only when tracing is on).
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int64
}

// New returns a tracer holding at most limit events (0 = unlimited).
// The limit guards long simulations against unbounded memory.
func New(limit int) *Tracer {
	return &Tracer{limit: limit}
}

// Add records an event. Events beyond the limit are dropped — and
// counted, so a truncated trace says so instead of silently looking like
// a quiet run (see Dropped and the metadata event in WriteJSON).
func (t *Tracer) Add(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events discarded by the limit.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a snapshot in a deterministic total order. Concurrent
// Add calls append in whatever order the scheduler picks, so sorting by
// start time alone (with an unstable sort) used to leave tied events in
// run-dependent positions — and a merged two-process trace is full of
// ties (both tracks start at 0). The full tie-break chain below makes
// Events, and therefore WriteJSON, byte-stable for a given event set no
// matter how many writers raced.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return eventLess(out[i], out[j]) })
	return out
}

// eventLess is a total order over events: start time first, then every
// identity field, so no two distinct events ever compare equal.
func eventLess(a, b Event) bool {
	switch {
	case a.Start != b.Start:
		return a.Start < b.Start
	case a.Process != b.Process:
		return a.Process < b.Process
	case a.Track != b.Track:
		return a.Track < b.Track
	case a.Name != b.Name:
		return a.Name < b.Name
	case a.Category != b.Category:
		return a.Category < b.Category
	case a.Duration != b.Duration:
		return a.Duration < b.Duration
	default:
		return a.FlowID < b.FlowID
	}
}

// chromeEvent is the wire format of the trace-event spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  string         `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"` // flow id ("s"/"f" events)
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// flowName labels the flow arrows in the viewer.
const flowName = "chunk"

// WriteJSON writes the events as a Chrome trace (JSON array form).
// Spans marked FlowOut/FlowIn are followed by their flow point events
// ("ph":"s" / "ph":"f", binding point "e") at the span's start timestamp
// on the same pid/tid, which is how the viewer binds the arrow to the
// enclosing slice. Flow ids come verbatim from Event.FlowID — content-
// derived, not assigned at write time — and events are emitted in the
// deterministic Events() order, so the same event set serializes
// identically regardless of Add interleaving. When the limit dropped
// events, a trailing metadata event ("trace_dropped", ph "M") carries
// the count in args.dropped, so a truncated trace is visibly truncated
// in the viewer.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+1)
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.Name,
			Cat:  e.Category,
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  e.Duration * 1e6,
			Pid:  e.Process,
			Tid:  e.Track,
			Args: e.Args,
		})
		if e.FlowID == 0 || (!e.FlowOut && !e.FlowIn) {
			continue
		}
		flow := chromeEvent{
			Name: flowName,
			Cat:  "journey",
			Ts:   e.Start * 1e6,
			Pid:  e.Process,
			Tid:  e.Track,
			ID:   fmt.Sprintf("0x%x", e.FlowID),
		}
		if e.FlowOut {
			flow.Ph = "s"
			out = append(out, flow)
		}
		if e.FlowIn {
			flow.Ph = "f"
			flow.BP = "e"
			out = append(out, flow)
		}
	}
	if d := t.Dropped(); d > 0 {
		out = append(out, chromeEvent{
			Name: "trace_dropped",
			Ph:   "M",
			Pid:  "tracer",
			Args: map[string]any{"dropped": d},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Summary aggregates per-(process, category) busy time — a quick text
// alternative to loading the JSON.
func (t *Tracer) Summary() string {
	busy := map[string]float64{}
	count := map[string]int{}
	for _, e := range t.Events() {
		k := e.Process + "/" + e.Category
		busy[k] += e.Duration
		count[k]++
	}
	keys := make([]string, 0, len(busy))
	for k := range busy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%-32s %8d ops %10.3fs busy\n", k, count[k], busy[k])
	}
	return out
}
