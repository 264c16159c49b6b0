package cluster

import (
	"math"
	"testing"

	"numastream/internal/hw"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// TestAPSTestbedLayout builds the §4.2 testbed's senders — updraft1,
// updraft2, polaris1, polaris2 into lynxdtn — through the relays.
func TestAPSTestbedLayout(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewMultiHop(eng, []SenderKind{Updraft, Updraft, Polaris, Polaris}, MultiHopOptions{Seed: 1})
	if err != nil {
		t.Fatalf("NewMultiHop: %v", err)
	}
	if len(d.Senders) != 4 {
		t.Fatalf("senders = %d, want 4", len(d.Senders))
	}
	if d.Gateway.M.Cfg.Name != "lynxdtn" {
		t.Fatalf("gateway = %q", d.Gateway.M.Cfg.Name)
	}
	names := []string{"updraft1", "updraft2", "polaris3", "polaris4"}
	for i, n := range d.Senders {
		if n.Sim.M.Cfg.Name != names[i] {
			t.Fatalf("sender %d = %q, want %q", i, n.Sim.M.Cfg.Name, names[i])
		}
		if n.Path == nil {
			t.Fatalf("sender %d has no path", i)
		}
	}
	// Polaris nodes are single-socket 32-core.
	if got := d.Senders[2].Sim.M; len(got.Sockets) != 1 || len(got.Cores) != 32 {
		t.Fatalf("polaris layout: %d sockets, %d cores", len(got.Sockets), len(got.Cores))
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := NewMultiHop(sim.NewEngine(), []SenderKind{SenderKind(99)}, MultiHopOptions{}); err == nil {
		t.Fatal("unknown sender kind accepted")
	}
}

func TestStreamIndexValidation(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewMultiHop(eng, []SenderKind{Updraft}, MultiHopOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stream(1, runtime.StreamSpec{}, runtime.NodeConfig{}, runtime.NodeConfig{}); err == nil {
		t.Fatal("out-of-range sender accepted")
	}
	if _, err := d.Stream(-1, runtime.StreamSpec{}, runtime.NodeConfig{}, runtime.NodeConfig{}); err == nil {
		t.Fatal("negative sender accepted")
	}
}

func TestDeploymentRunsStream(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewMultiHop(eng, []SenderKind{Updraft}, MultiHopOptions{AccessGbps: 100, UplinkGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	sCfg := runtime.NodeConfig{Node: "updraft1", Role: runtime.Sender,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Send, Count: 2, Placement: runtime.SplitAll()},
		}}
	rCfg := runtime.NodeConfig{Node: "lynxdtn", Role: runtime.Receiver,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Receive, Count: 2, Placement: runtime.PinTo(1)},
		}}
	st, err := d.Stream(0, runtime.StreamSpec{Name: "s", Chunks: 60, ChunkBytes: 5.5e6}, sCfg, rCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run([]*runtime.Stream{st}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Delivered != 60 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	// Two local receive threads process ~66 Gbps (under the 100 Gbps
	// links) — the same physics as the direct testbed wiring.
	if g := hw.Gbps(st.EndToEndBps()); math.Abs(g-66) > 3 {
		t.Fatalf("throughput = %.1f Gbps, want ~66", g)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o MultiHopOptions
	o.normalize()
	if o.Relays != 2 || o.AccessGbps != 100 || o.UplinkGbps != 200 || o.RTT != 0.45e-3 {
		t.Fatalf("defaults = %+v", o)
	}
}
