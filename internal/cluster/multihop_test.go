package cluster

import (
	"testing"

	"numastream/internal/faults"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

func TestMultiHopLayout(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewMultiHop(eng, []SenderKind{Updraft, Updraft, Polaris}, MultiHopOptions{Relays: 2})
	if err != nil {
		t.Fatalf("NewMultiHop: %v", err)
	}
	wantNodes := []string{"updraft1", "updraft2", "polaris3", "relay1", "relay2", "gateway"}
	if got := m.NodeNames(); len(got) != len(wantNodes) {
		t.Fatalf("NodeNames = %v, want %v", got, wantNodes)
	} else {
		for i := range got {
			if got[i] != wantNodes[i] {
				t.Fatalf("NodeNames = %v, want %v", got, wantNodes)
			}
		}
	}
	// Round-robin relay assignment: senders 0 and 2 share relay1.
	if m.RelayOf(0) != "relay1" || m.RelayOf(1) != "relay2" || m.RelayOf(2) != "relay1" {
		t.Fatalf("relay assignment: %s %s %s", m.RelayOf(0), m.RelayOf(1), m.RelayOf(2))
	}
	// LinkNames is sorted.
	links := m.LinkNames()
	want := []string{"polaris3-relay1", "relay1-gateway", "relay2-gateway", "updraft1-relay1", "updraft2-relay2"}
	if len(links) != len(want) {
		t.Fatalf("LinkNames = %v, want %v", links, want)
	}
	for i := range links {
		if links[i] != want[i] {
			t.Fatalf("LinkNames = %v, want %v", links, want)
		}
	}
	// Each sender path crosses its access link then its relay's uplink.
	if got := m.Senders[0].Path.Links(); len(got) != 2 {
		t.Fatalf("sender 0 path crosses %d links, want 2", len(got))
	}
}

func TestMultiHopStreamsDeliverEverything(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewMultiHop(eng, []SenderKind{Updraft, Updraft}, MultiHopOptions{Relays: 2, AccessGbps: 100, UplinkGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	var streams []*runtime.Stream
	for i := 0; i < 2; i++ {
		sCfg := runtime.NodeConfig{Node: m.Senders[i].Sim.M.Cfg.Name, Role: runtime.Sender,
			Groups: []runtime.TaskGroup{
				{Type: runtime.Send, Count: 2, Placement: runtime.SplitAll()},
			}}
		rCfg := runtime.NodeConfig{Node: "lynxdtn", Role: runtime.Receiver,
			Groups: []runtime.TaskGroup{
				{Type: runtime.Receive, Count: 2, Placement: runtime.PinTo(1)},
			}}
		st, err := m.Stream(i, runtime.StreamSpec{Name: "s", Chunks: 40, ChunkBytes: 5.5e6}, sCfg, rCfg)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	if err := m.Run(streams); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, st := range streams {
		if st.Delivered != 40 {
			t.Fatalf("stream %d delivered %d, want 40", i, st.Delivered)
		}
	}
}

func TestMultiHopApplyTopology(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewMultiHop(eng, []SenderKind{Updraft, Updraft}, MultiHopOptions{Relays: 2})
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.TopoSchedule{
		{T: 0.1, Kind: faults.NodeDown, Name: "relay1"},
		{T: 0.3, Kind: faults.NodeUp, Name: "relay1"},
		{T: 0.2, Kind: faults.LinkDown, Name: "updraft2-relay2"},
		{T: 0.4, Kind: faults.LinkUp, Name: "updraft2-relay2"},
	}
	if err := m.ApplyTopology(sched); err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}

	// Unknown names are a misconfigured drill, not a no-op.
	bad := faults.TopoSchedule{{T: 1, Kind: faults.NodeDown, Name: "bogus"}}
	if err := m.ApplyTopology(bad); err == nil {
		t.Fatal("accepted topology event for unknown node")
	}
	// An unclosed outage would stall the simulation forever.
	open := faults.TopoSchedule{{T: 1, Kind: faults.NodeDown, Name: "relay1"}}
	if err := m.ApplyTopology(open); err == nil {
		t.Fatal("accepted unclosed outage")
	}
}

func TestMultiHopChurnDelaysButDelivers(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewMultiHop(eng, []SenderKind{Updraft}, MultiHopOptions{Relays: 1, AccessGbps: 100, UplinkGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the relay over [5ms, 25ms): traffic in flight stalls and
	// resumes — nothing is lost, everything is late.
	sched := faults.TopoSchedule{
		{T: 5e-3, Kind: faults.NodeDown, Name: "relay1"},
		{T: 25e-3, Kind: faults.NodeUp, Name: "relay1"},
	}
	if err := m.ApplyTopology(sched); err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}
	sCfg := runtime.NodeConfig{Node: "updraft1", Role: runtime.Sender,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Send, Count: 2, Placement: runtime.SplitAll()},
		}}
	rCfg := runtime.NodeConfig{Node: "lynxdtn", Role: runtime.Receiver,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Receive, Count: 2, Placement: runtime.PinTo(1)},
		}}
	st, err := m.Stream(0, runtime.StreamSpec{Name: "s", Chunks: 60, ChunkBytes: 5.5e6}, sCfg, rCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run([]*runtime.Stream{st}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Delivered != 60 {
		t.Fatalf("delivered %d, want 60", st.Delivered)
	}
	if m.FaultDelay() <= 0 {
		t.Fatal("relay outage inflicted no delay")
	}
}
