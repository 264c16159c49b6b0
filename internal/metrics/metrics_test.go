package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeterCounts(t *testing.T) {
	m := NewMeter()
	m.Add(100)
	m.Add(50)
	if m.Bytes() != 150 {
		t.Fatalf("Bytes = %d, want 150", m.Bytes())
	}
	if m.Items() != 2 {
		t.Fatalf("Items = %d, want 2", m.Items())
	}
}

func TestMeterRate(t *testing.T) {
	m := NewMeter()
	m.Add(1000)
	time.Sleep(20 * time.Millisecond)
	r := m.Rate()
	if r <= 0 || r > 1000/0.02*2 {
		t.Fatalf("Rate = %v out of plausible range", r)
	}
	// Gbps is Rate in other units; sampled moments differ slightly, so
	// allow drift.
	g := m.Gbps()
	want := m.Rate() * 8 / 1e9
	if g <= 0 || want <= 0 || g/want > 2 || want/g > 2 {
		t.Fatalf("Gbps = %v inconsistent with Rate-derived %v", g, want)
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add(1)
			}
		}()
	}
	wg.Wait()
	if m.Bytes() != 8000 || m.Items() != 8000 {
		t.Fatalf("concurrent counts: %d bytes, %d items", m.Bytes(), m.Items())
	}
}

func TestRegistryReusesMeters(t *testing.T) {
	r := NewRegistry()
	a := r.Meter("recv")
	b := r.Meter("recv")
	if a != b {
		t.Fatal("Meter returned different instances for the same name")
	}
	a.Add(10)
	snaps := r.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "recv" || snaps[0].Bytes != 10 {
		t.Fatalf("Snapshots = %+v", snaps)
	}
}

func TestRegistrySnapshotsSorted(t *testing.T) {
	r := NewRegistry()
	r.Meter("z").Add(1)
	r.Meter("a").Add(1)
	r.Meter("m").Add(1)
	snaps := r.Snapshots()
	if snaps[0].Name != "a" || snaps[1].Name != "m" || snaps[2].Name != "z" {
		t.Fatalf("Snapshots unsorted: %+v", snaps)
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Meter("compress").Add(1024)
	s := r.String()
	if !strings.Contains(s, "compress") || !strings.Contains(s, "1024") {
		t.Fatalf("String output: %q", s)
	}
}

func TestMeterLazyClock(t *testing.T) {
	// Regression: the rate window must open at the first recorded byte,
	// not at construction, so idle preamble (a receiver waiting for its
	// peer) does not dilute the rate.
	m := NewMeter()
	if m.Elapsed() != 0 {
		t.Fatalf("Elapsed before first Add = %v, want 0", m.Elapsed())
	}
	if m.Rate() != 0 || m.Gbps() != 0 {
		t.Fatalf("Rate/Gbps before first Add = %v/%v, want 0", m.Rate(), m.Gbps())
	}
	time.Sleep(80 * time.Millisecond) // the idle preamble
	m.Add(1000)
	if el := m.Elapsed(); el > 40*time.Millisecond {
		t.Fatalf("Elapsed right after first Add = %v; preamble leaked into the window", el)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("Value = %v, want 3.5", g.Value())
	}
}

func TestRegistryGaugesAndCallbacks(t *testing.T) {
	r := NewRegistry()
	r.Gauge("peers").Set(2)
	depth := 5.0
	r.RegisterGauge("decq_depth", func() float64 { return depth })
	gs := r.GaugeSnapshots()
	if len(gs) != 2 {
		t.Fatalf("GaugeSnapshots = %+v", gs)
	}
	if gs[0].Name != "decq_depth" || gs[0].Value != 5 {
		t.Fatalf("callback gauge = %+v", gs[0])
	}
	if gs[1].Name != "peers" || gs[1].Value != 2 {
		t.Fatalf("set gauge = %+v", gs[1])
	}
	// Re-registering replaces the callback (fresh run, reused registry).
	r.RegisterGauge("decq_depth", func() float64 { return 9 })
	gs = r.GaugeSnapshots()
	if len(gs) != 2 || gs[0].Value != 9 {
		t.Fatalf("after re-register: %+v", gs)
	}
}

func TestRegistryGaugeCallbackMayUseRegistry(t *testing.T) {
	// Callback gauges are polled outside the registry lock; a callback
	// that re-enters the registry must not deadlock.
	r := NewRegistry()
	r.RegisterGauge("self", func() float64 {
		return float64(r.CounterValue("redials"))
	})
	r.Counter("redials").Inc()
	gs := r.GaugeSnapshots()
	if len(gs) != 1 || gs[0].Value != 1 {
		t.Fatalf("re-entrant callback gauge = %+v", gs)
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("compress_latency_ns")
	if r.Histogram("compress_latency_ns") != h {
		t.Fatal("Histogram returned a different instance for the same name")
	}
	h.Observe(1500)
	hs := r.HistogramSnapshots()
	if len(hs) != 1 || hs[0].Name != "compress_latency_ns" || hs[0].Count != 1 {
		t.Fatalf("HistogramSnapshots = %+v", hs)
	}
	s := r.String()
	if !strings.Contains(s, "compress_latency_ns") {
		t.Fatalf("String missing histogram line: %q", s)
	}
}
