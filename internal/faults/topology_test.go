package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTopoScheduleNormalizeAndOutages(t *testing.T) {
	s := TopoSchedule{
		{T: 5, Kind: NodeUp, Name: "relay1"},
		{T: 2, Kind: NodeDown, Name: "relay1"},
		{T: 7, Kind: NodeDown, Name: "relay1"},
		{T: 9, Kind: NodeUp, Name: "relay1"},
		{T: 3, Kind: LinkDown, Name: "backbone"},
	}
	norm, err := s.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if norm[0].T != 2 || norm[len(norm)-1].T != 9 {
		t.Fatalf("not sorted: %v", norm)
	}
	if got := downs(norm); got != 3 {
		t.Fatalf("Downs = %d, want 3", got)
	}
	if got := norm.End(); got != 9 {
		t.Fatalf("End = %g, want 9", got)
	}

	out := norm.Outages("relay1")
	want := []LinkWindow{{Start: 2, End: 5}, {Start: 7, End: 9}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("Outages(relay1) = %v, want %v", out, want)
	}
	// An unclosed outage extends to +Inf.
	bb := norm.Outages("backbone")
	if len(bb) != 1 || bb[0].Start != 3 || !math.IsInf(bb[0].End, 1) {
		t.Fatalf("Outages(backbone) = %v, want one [3, +Inf) window", bb)
	}

	if _, err := (TopoSchedule{{T: -1, Kind: NodeDown, Name: "x"}}).Normalize(); err == nil {
		t.Error("accepted negative event time")
	}
	if _, err := (TopoSchedule{{T: 1, Kind: NodeDown}}).Normalize(); err == nil {
		t.Error("accepted empty name")
	}
}

func TestMergeOutages(t *testing.T) {
	got, err := MergeOutages(
		[]LinkWindow{{Start: 1, End: 3}, {Start: 8, End: 9}},
		[]LinkWindow{{Start: 2, End: 5}},
		[]LinkWindow{{Start: 5, End: 6}}, // adjacent: coalesces
	)
	if err != nil {
		t.Fatalf("MergeOutages: %v", err)
	}
	want := LinkSchedule{{Start: 1, End: 6}, {Start: 8, End: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	empty, err := MergeOutages(nil, nil)
	if err != nil || empty != nil {
		t.Fatalf("MergeOutages() = %v, %v; want nil, nil", empty, err)
	}
}

func TestParseTopoScheduleRoundTrip(t *testing.T) {
	src := `
# a churn storm
0.3  NODEDOWN relay1
0.45 nodeup   relay1   # case-insensitive
0.5  LINKDOWN backbone
0.6  LINKUP   backbone
`
	s, err := ParseTopoSchedule(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseTopoSchedule: %v", err)
	}
	if len(s) != 4 {
		t.Fatalf("parsed %d events, want 4", len(s))
	}
	if s[0].Kind != NodeDown || s[0].Name != "relay1" || s[0].T != 0.3 {
		t.Fatalf("event 0 = %v", s[0])
	}

	// Format output parses back to the same schedule.
	again, err := ParseTopoSchedule(strings.NewReader(s.Format()))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round trip changed the schedule:\n%v\n%v", s, again)
	}
}

func TestParseTopoScheduleOLSRForm(t *testing.T) {
	s, err := ParseTopoSchedule(strings.NewReader("10 UP 0 1\n20 DOWN 0 1\n"))
	if err != nil {
		t.Fatalf("ParseTopoSchedule: %v", err)
	}
	if s[0].Kind != LinkUp || s[0].Name != "0-1" || s[1].Kind != LinkDown {
		t.Fatalf("OLSR form parsed to %v", s)
	}

	for _, bad := range []string{
		"x NODEDOWN a",     // bad time
		"1 EXPLODE a",      // unknown kind
		"1 NODEDOWN",       // missing name
		"1 NODEDOWN a b",   // one name only
		"1 UP onlyonename", // OLSR form needs two endpoints
	} {
		if _, err := ParseTopoSchedule(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestGenChurnStormDeterministicAndCovering(t *testing.T) {
	cfg := ChurnStorm{Nodes: []string{"relay1", "updraft1", "updraft2"}, Downs: 3, Horizon: 10}
	a, err := GenChurnStorm(7, cfg)
	if err != nil {
		t.Fatalf("GenChurnStorm: %v", err)
	}
	b, _ := GenChurnStorm(7, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different storms")
	}
	c, _ := GenChurnStorm(8, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical storms")
	}
	if got := downs(a); got != 3 {
		t.Fatalf("storm has %d down events, want 3", got)
	}
	// Downs >= len(Nodes): every node takes a hit, so a storm over
	// {relay, senders} always includes the relay death the drills need.
	hit := map[string]bool{}
	for _, e := range a {
		if e.Kind == NodeDown {
			hit[e.Name] = true
		}
	}
	for _, n := range cfg.Nodes {
		if !hit[n] {
			t.Errorf("node %s never went down", n)
		}
	}
	// Every down closes, and same-node outages never overlap.
	for _, n := range cfg.Nodes {
		for _, w := range a.Outages(n) {
			if math.IsInf(w.End, 1) {
				t.Errorf("node %s has an unclosed outage", n)
			}
		}
	}

	if _, err := GenChurnStorm(1, ChurnStorm{Downs: 1, Horizon: 1}); err == nil {
		t.Error("accepted a storm without nodes")
	}
}

func TestRunTopoFiresInOrderAndStops(t *testing.T) {
	sched, err := TopoSchedule{
		{T: 0, Kind: NodeDown, Name: "a"},
		{T: 1, Kind: NodeUp, Name: "a"},
		{T: 2, Kind: NodeDown, Name: "b"},
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	var got []string
	n := RunTopo(sched, time.Millisecond, nil, func(e TopoEvent) {
		got = append(got, e.String())
	})
	if n != 3 || len(got) != 3 {
		t.Fatalf("fired %d events (%v), want 3", n, got)
	}
	if got[0] != "0 NODEDOWN a" || got[2] != "2 NODEDOWN b" {
		t.Fatalf("order wrong: %v", got)
	}

	stop := make(chan struct{})
	close(stop)
	if n := RunTopo(sched, time.Hour, stop, func(TopoEvent) {}); n > 1 {
		t.Fatalf("closed stop still fired %d events", n)
	}
}

// downs counts the schedule's down events (node and link).
func downs(s TopoSchedule) int {
	n := 0
	for _, e := range s {
		if e.Kind.IsDown() {
			n++
		}
	}
	return n
}
