package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndEventsSorted(t *testing.T) {
	tr := New(0)
	tr.Add(Event{Name: "b", Start: 2, Duration: 1})
	tr.Add(Event{Name: "a", Start: 1, Duration: 1})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	ev := tr.Events()
	if ev[0].Name != "a" || ev[1].Name != "b" {
		t.Fatalf("events not sorted by start: %+v", ev)
	}
}

func TestLimitDropsExcess(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		tr.Add(Event{Name: "e", Start: float64(i)})
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (limited)", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", tr.Dropped())
	}
}

func TestNoLimitNoDrops(t *testing.T) {
	tr := New(0)
	for i := 0; i < 10; i++ {
		tr.Add(Event{Name: "e"})
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 for an unlimited tracer", tr.Dropped())
	}
}

func TestWriteJSONReportsDrops(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Add(Event{Name: "e", Start: float64(i)})
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// 2 retained events plus the trailing metadata event.
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	meta := events[2]
	if meta["name"] != "trace_dropped" || meta["ph"] != "M" {
		t.Fatalf("metadata event = %v", meta)
	}
	args, ok := meta["args"].(map[string]any)
	if !ok || args["dropped"].(float64) != 3 {
		t.Fatalf("metadata args = %v, want dropped=3", meta["args"])
	}
}

func TestWriteJSONOmitsDropMarkerWhenComplete(t *testing.T) {
	tr := New(10)
	tr.Add(Event{Name: "e"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if strings.Contains(buf.String(), "trace_dropped") {
		t.Fatalf("complete trace carries a drop marker: %s", buf.String())
	}
}

func TestWriteJSONIsValidChromeTrace(t *testing.T) {
	tr := New(0)
	tr.Add(Event{
		Name: "decompress", Category: "decompress",
		Start: 0.001, Duration: 0.0005,
		Process: "lynxdtn", Track: 17,
		Args: map[string]any{"remote": true},
	})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if e["ph"] != "X" || e["name"] != "decompress" || e["pid"] != "lynxdtn" {
		t.Fatalf("event = %v", e)
	}
	if e["ts"].(float64) != 1000 { // 0.001s in µs
		t.Fatalf("ts = %v, want 1000", e["ts"])
	}
	if e["dur"].(float64) != 500 {
		t.Fatalf("dur = %v, want 500", e["dur"])
	}
}

func TestSummaryAggregates(t *testing.T) {
	tr := New(0)
	tr.Add(Event{Category: "receive", Process: "gw", Duration: 1})
	tr.Add(Event{Category: "receive", Process: "gw", Duration: 2})
	tr.Add(Event{Category: "send", Process: "src", Duration: 5})
	s := tr.Summary()
	if !strings.Contains(s, "gw/receive") || !strings.Contains(s, "3.000s") {
		t.Fatalf("Summary:\n%s", s)
	}
	if !strings.Contains(s, "src/send") {
		t.Fatalf("Summary missing src/send:\n%s", s)
	}
}

func TestClockMonotonic(t *testing.T) {
	a := NowNanos()
	b := NowNanos()
	if a < 0 || b < a {
		t.Fatalf("NowNanos not monotonic: %d then %d", a, b)
	}
	if Epoch().IsZero() {
		t.Fatal("Epoch is zero")
	}
	// Epoch + NowNanos must track the monotonic clock: converting a
	// NowNanos reading back through Epoch lands within the bracket.
	n := NowNanos()
	if d := time.Since(Epoch().Add(time.Duration(n))); d < 0 || d > time.Second {
		t.Fatalf("Epoch/NowNanos disagree by %v", d)
	}
}

func TestFlowEventsEmitted(t *testing.T) {
	tr := New(0)
	tr.Add(Event{Name: "send", Process: "src", Track: 1, Start: 0.001, Duration: 0.001,
		FlowID: 0xbeef, FlowOut: true})
	tr.Add(Event{Name: "receive", Process: "gw", Track: 2, Start: 0.003, Duration: 0.001,
		FlowID: 0xbeef, FlowIn: true})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	// 2 duration events + 1 flow start + 1 flow finish.
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4:\n%s", len(events), buf.String())
	}
	var s, f map[string]any
	for _, e := range events {
		switch e["ph"] {
		case "s":
			s = e
		case "f":
			f = e
		}
	}
	if s == nil || f == nil {
		t.Fatalf("missing flow phases:\n%s", buf.String())
	}
	if s["id"] != "0xbeef" || f["id"] != "0xbeef" {
		t.Fatalf("flow ids = %v / %v, want stable 0xbeef", s["id"], f["id"])
	}
	if s["pid"] != "src" || f["pid"] != "gw" {
		t.Fatalf("flow pids = %v / %v", s["pid"], f["pid"])
	}
	if s["ts"].(float64) != 1000 || f["ts"].(float64) != 3000 {
		t.Fatalf("flow ts = %v / %v, want span starts", s["ts"], f["ts"])
	}
	if f["bp"] != "e" {
		t.Fatalf("flow finish bp = %v, want \"e\"", f["bp"])
	}
}

// TestWriteJSONDeterministicUnderConcurrentAdd is the regression test
// for nondeterministic merged traces: two writers interleave events with
// colliding start times, and WriteJSON must serialize the identical byte
// stream every run — Perfetto-stable flow/event ids and ordering.
func TestWriteJSONDeterministicUnderConcurrentAdd(t *testing.T) {
	render := func() string {
		tr := New(0)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				proc := []string{"sender", "receiver"}[w]
				for j := 0; j < 200; j++ {
					tr.Add(Event{
						Name:    "op",
						Start:   float64(j % 10), // deliberate cross-writer ties
						Process: proc,
						Track:   j % 4,
						FlowID:  uint64(w)<<32 | uint64(j),
						FlowOut: w == 0,
						FlowIn:  w == 1,
					})
				}
			}(w)
		}
		close(start)
		wg.Wait()
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d serialized differently under concurrent Add", i)
		}
	}
}

func TestConcurrentAdd(t *testing.T) {
	tr := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Add(Event{Name: "x"})
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("Len = %d, want 800", tr.Len())
	}
}
