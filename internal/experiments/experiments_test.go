package experiments

import (
	"math"
	"strings"
	"testing"
)

// These tests assert the paper's shapes: orderings, factors and
// crossovers, not absolute Gbps (see DESIGN.md §4).

func TestTableConfigs(t *testing.T) {
	t1 := Table1Configs()
	if len(t1) != 8 || t1[0].Label != "A" || t1[7].Label != "H" {
		t.Fatalf("Table 1 = %+v", t1)
	}
	t2 := Table2Configs()
	if len(t2) != 5 || t2[4].Label != "E" {
		t.Fatalf("Table 2 = %+v", t2)
	}
	t3 := Table3Configs()
	if len(t3) != 7 {
		t.Fatalf("Table 3 has %d configs", len(t3))
	}
	// Paper anchors: A = 8C/4D, G = 32C/16D.
	if t3[0].Compress != 8 || t3[0].Decompress != 4 {
		t.Fatalf("Table 3 A = %+v", t3[0])
	}
	if t3[6].Compress != 32 || t3[6].Decompress != 16 {
		t.Fatalf("Table 3 G = %+v", t3[6])
	}
}

func codecGbps(t *testing.T, results []CodecResult, cfg string, threads int) float64 {
	t.Helper()
	r, ok := CodecResultFor(results, cfg, threads)
	if !ok {
		t.Fatalf("missing codec cell %s/%d", cfg, threads)
	}
	return r.Gbps
}

func TestFig8CompressionShape(t *testing.T) {
	res := Fig8Compression([]int{1, 2, 4, 8, 16, 32})

	// Obs. 2a: linear scaling while threads <= cores per domain.
	for _, cfg := range []string{"A", "D"} {
		g1 := codecGbps(t, res, cfg, 1)
		g16 := codecGbps(t, res, cfg, 16)
		if r := g16 / g1; r < 14 || r > 17 {
			t.Errorf("config %s 16/1 thread scaling = %.1f, want ~16", cfg, r)
		}
	}
	// Obs. 2b: memory domain and execution domain do not matter
	// (A≈B≈C≈D at every pinned count).
	for _, n := range []int{4, 16, 32} {
		a := codecGbps(t, res, "A", n)
		for _, cfg := range []string{"B", "C", "D"} {
			g := codecGbps(t, res, cfg, n)
			if math.Abs(g-a)/a > 0.02 {
				t.Errorf("config %s at %d threads = %.1f, differs from A = %.1f", cfg, n, g, a)
			}
		}
	}
	// Obs. 2c: at 32 threads the single-domain configs run at roughly
	// half the both-domain configs (the paper's "nearly halved").
	a32 := codecGbps(t, res, "A", 32)
	e32 := codecGbps(t, res, "E", 32)
	if r := e32 / a32; r < 1.7 || r > 2.3 {
		t.Errorf("E/A at 32 threads = %.2f, want ~2", r)
	}
	// The OS configs use all cores too and land near E/F.
	g32 := codecGbps(t, res, "G", 32)
	if g32 < 0.7*e32 {
		t.Errorf("G at 32 threads = %.1f, want within 30%% of E = %.1f", g32, e32)
	}
	// Beyond the core count throughput declines slightly, never grows.
	res64 := Fig8Compression([]int{32, 64})
	for _, cfg := range []string{"A", "E"} {
		g32 := codecGbps(t, res64, cfg, 32)
		g64 := codecGbps(t, res64, cfg, 64)
		if g64 > g32*1.01 {
			t.Errorf("config %s grew from %.1f to %.1f past the core count", cfg, g32, g64)
		}
	}
	// 8 threads reproduce the paper's 37 Gbps anchor.
	if a8 := codecGbps(t, res, "A", 8); math.Abs(a8-37)/37 > 0.05 {
		t.Errorf("A at 8 threads = %.1f Gbps, want ~37", a8)
	}
}

func TestFig9DecompressionShape(t *testing.T) {
	dec := Fig9Decompression([]int{8, 16})
	comp := Fig8Compression([]int{8})

	// Obs. 3a: decompression ~3X compression at equal thread counts.
	d8 := codecGbps(t, dec, "A", 8)
	c8 := codecGbps(t, comp, "A", 8)
	if r := d8 / c8; r < 2.7 || r > 3.3 {
		t.Errorf("decompress/compress at 8 threads = %.2f, want ~3", r)
	}
	// Obs. 3b: at 8 threads all pinned configs agree.
	for _, cfg := range []string{"B", "C", "D", "E", "F"} {
		g := codecGbps(t, dec, cfg, 8)
		if math.Abs(g-d8)/d8 > 0.02 {
			t.Errorf("config %s at 8 threads = %.1f, differs from A = %.1f", cfg, g, d8)
		}
	}
	// Obs. 3c: at 16 threads the split configs (E/F) outpace the
	// single-domain ones (LLC/MC contention relief).
	a16 := codecGbps(t, dec, "A", 16)
	e16 := codecGbps(t, dec, "E", 16)
	if e16 <= a16*1.03 {
		t.Errorf("E at 16 threads = %.1f, not meaningfully above A = %.1f", e16, a16)
	}
	// And the OS configs trail E/F.
	g16 := codecGbps(t, dec, "G", 16)
	if g16 >= e16 {
		t.Errorf("G at 16 threads = %.1f, should trail E = %.1f", g16, e16)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5Streaming([]int{4, 32, 128})
	if err != nil {
		t.Fatalf("Fig5Streaming: %v", err)
	}
	get := func(p int, placement string) float64 {
		for _, r := range res {
			if r.Processes == p && r.Placement == placement {
				return r.Gbps
			}
		}
		t.Fatalf("missing cell %d/%s", p, placement)
		return 0
	}
	// Low process counts are generation-bound and placement-agnostic.
	if g := get(4, "N1"); math.Abs(g-24)/24 > 0.1 {
		t.Errorf("4 processes = %.1f Gbps, want ~24 (4 x 6 Gbps)", g)
	}
	// At saturation, NIC-local placement wins ~15% over remote.
	for _, p := range []int{32, 128} {
		n0, n1 := get(p, "N0"), get(p, "N1")
		boost := (n1 - n0) / n0
		if boost < 0.08 || boost > 0.25 {
			t.Errorf("p=%d: N1 boost over N0 = %.1f%%, want ~15%%", p, boost*100)
		}
	}
	// Throughput grows with processes up to saturation.
	if get(32, "N1") <= get(4, "N1") {
		t.Error("throughput did not grow from 4 to 32 processes")
	}
	// N1 saturates near the paper's 190+ Gbps (shape: >=170).
	if g := get(32, "N1"); g < 170 {
		t.Errorf("N1 saturation = %.1f Gbps, want >= 170", g)
	}
}

func TestFig6CoreUsage(t *testing.T) {
	res, err := Fig6CoreUsage([]Fig6Config{
		{Label: "8P_2c_N0", Processes: 8, Cores: 2, Domain: 0},
		{Label: "8P_2c_N1", Processes: 8, Cores: 2, Domain: 1},
	})
	if err != nil {
		t.Fatalf("Fig6CoreUsage: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	// N0 config: only cores 0 and 1 busy; they also show remote access
	// (the NIC is on NUMA 1).
	n0 := res[0]
	for _, cs := range n0.CoreStats {
		busy := cs.Utilization > 0.01
		if (cs.ID == 0 || cs.ID == 1) != busy {
			t.Errorf("N0 config: core %d utilization %.2f unexpected", cs.ID, cs.Utilization)
		}
		if (cs.ID == 0 || cs.ID == 1) && cs.RemoteBytes == 0 {
			t.Errorf("N0 config: core %d shows no remote access", cs.ID)
		}
	}
	// N1 config: only cores 16 and 17 busy, with no remote reads.
	n1 := res[1]
	for _, cs := range n1.CoreStats {
		busy := cs.Utilization > 0.01
		if (cs.ID == 16 || cs.ID == 17) != busy {
			t.Errorf("N1 config: core %d utilization %.2f unexpected", cs.ID, cs.Utilization)
		}
		if cs.RemoteBytes > 0 {
			t.Errorf("N1 config: core %d shows remote access", cs.ID)
		}
	}
}

func TestFig6ConfigValidation(t *testing.T) {
	if _, err := Fig6CoreUsage([]Fig6Config{{Label: "bad", Processes: 2, Cores: 0, Domain: 0}}); err == nil {
		t.Error("accepted zero cores")
	}
	if _, err := Fig6CoreUsage([]Fig6Config{{Label: "bad", Processes: 2, Cores: 20, Domain: 0}}); err == nil {
		t.Error("accepted more cores than the domain has")
	}
	if _, err := Fig6CoreUsage([]Fig6Config{{Label: "bad", Processes: 2, Cores: 2, Domain: 5}}); err == nil {
		t.Error("accepted invalid domain")
	}
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11Network([]int{1, 2, 3, 4, 8})
	if err != nil {
		t.Fatalf("Fig11Network: %v", err)
	}
	get := func(cfg string, n int) float64 {
		for _, r := range res {
			if r.Config == cfg && r.Threads == n {
				return r.Gbps
			}
		}
		t.Fatalf("missing cell %s/%d", cfg, n)
		return 0
	}
	// Obs. 4a: receiver on NUMA 1 (B, D) beats receiver on NUMA 0
	// (A, C) at 1-3 threads by ~15%.
	for _, n := range []int{1, 2, 3} {
		boost := (get("B", n) - get("A", n)) / get("A", n)
		if boost < 0.08 || boost > 0.25 {
			t.Errorf("threads=%d: B over A = %.1f%%, want ~15%%", n, boost*100)
		}
	}
	// Obs. 4b: sender placement does not matter (A≈C, B≈D).
	for _, n := range []int{1, 2, 3, 4} {
		if a, c := get("A", n), get("C", n); math.Abs(a-c)/a > 0.03 {
			t.Errorf("threads=%d: A=%.1f C=%.1f differ (sender placement)", n, a, c)
		}
		if b, d := get("B", n), get("D", n); math.Abs(b-d)/b > 0.03 {
			t.Errorf("threads=%d: B=%.1f D=%.1f differ (sender placement)", n, b, d)
		}
	}
	// Obs. 4c: all configurations converge at the 100 Gbps NIC once
	// enough threads run.
	for _, cfg := range []string{"A", "B", "C", "D"} {
		if g := get(cfg, 8); math.Abs(g-100)/100 > 0.05 {
			t.Errorf("config %s at 8 threads = %.1f, want ~100 (NIC)", cfg, g)
		}
	}
	if g := get("E", 8); g < 85 {
		t.Errorf("OS config at 8 threads = %.1f, want near the NIC", g)
	}
	// Sharp rise from 1 to 2 threads.
	if r := get("B", 2) / get("B", 1); r < 1.8 {
		t.Errorf("B 2/1 thread scaling = %.2f, want ~2", r)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12EndToEnd([]int{1, 8})
	if err != nil {
		t.Fatalf("Fig12EndToEnd: %v", err)
	}
	get := func(cfg string, n, dom int) float64 {
		for _, r := range res {
			if r.Config == cfg && r.Threads == n && r.RecvDomain == dom {
				return r.E2EGbps
			}
		}
		t.Fatalf("missing cell %s/%d/N%d", cfg, n, dom)
		return 0
	}
	// A and B stay at the 37 Gbps compression-bound baseline.
	for _, cfg := range []string{"A", "B"} {
		for _, n := range []int{1, 8} {
			for _, dom := range []int{0, 1} {
				if g := get(cfg, n, dom); math.Abs(g-37)/37 > 0.05 {
					t.Errorf("config %s t=%d N%d = %.1f, want ~37", cfg, n, dom, g)
				}
			}
		}
	}
	// With one thread pair, receiver domain matters for the heavier
	// configurations (C: NUMA 1 wins).
	if n0, n1 := get("C", 1, 0), get("C", 1, 1); n1 <= n0*1.05 {
		t.Errorf("C t=1: N1=%.1f not above N0=%.1f", n1, n0)
	}
	// The tuned configurations (F/G, 8 threads, receiver on N1) beat
	// the baseline by at least the paper's 2.6X.
	best := get("G", 8, 1)
	if f := get("F", 8, 1); f > best {
		best = f
	}
	if factor := best / get("A", 8, 1); factor < 2.4 {
		t.Errorf("best/baseline = %.2fX, want >= 2.4 (paper: 2.6X)", factor)
	}
	// E (only 4 decompression threads) is decompression-bound below F.
	if e, f := get("E", 8, 1), get("F", 8, 1); e >= f {
		t.Errorf("E=%.1f should trail F=%.1f (4 vs 8 decompress threads)", e, f)
	}
}

func TestFig14Shape(t *testing.T) {
	rt, osr, factor, err := Fig14Speedup()
	if err != nil {
		t.Fatalf("Fig14Speedup: %v", err)
	}
	// The runtime beats the OS baseline by a factor in the paper's
	// vicinity (1.48X).
	if factor < 1.2 || factor > 1.7 {
		t.Errorf("runtime/OS factor = %.2f, want ~1.48", factor)
	}
	// End-to-end is twice network at the 2:1 ratio.
	for _, res := range []Fig14Result{rt, osr} {
		if res.TotalNet == 0 {
			t.Fatalf("%s: zero network throughput", res.Mode)
		}
		if r := res.TotalE2E / res.TotalNet; math.Abs(r-2) > 0.05 {
			t.Errorf("%s: e2e/net = %.2f, want ~2", res.Mode, r)
		}
		if len(res.Streams) != 4 {
			t.Fatalf("%s: %d streams", res.Mode, len(res.Streams))
		}
	}
	// Runtime placement shares the gateway fairly across streams.
	for _, s := range rt.Streams {
		if s.E2EGbps < rt.TotalE2E/4*0.7 || s.E2EGbps > rt.TotalE2E/4*1.3 {
			t.Errorf("runtime stream %s = %.1f Gbps, unfair vs total %.1f", s.Stream, s.E2EGbps, rt.TotalE2E)
		}
	}
	// Absolute vicinity of the paper's cumulative numbers (generous
	// band: the substrate is a model).
	if rt.TotalE2E < 170 || rt.TotalE2E > 240 {
		t.Errorf("runtime e2e = %.1f Gbps, want ~213", rt.TotalE2E)
	}
	if osr.TotalE2E < 110 || osr.TotalE2E > 175 {
		t.Errorf("OS e2e = %.1f Gbps, want ~143", osr.TotalE2E)
	}
}

func TestFormatters(t *testing.T) {
	res5, err := Fig5Streaming([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	s := FormatFig5(res5)
	if !strings.Contains(s, "N0,1") || !strings.Contains(s, "4") {
		t.Errorf("FormatFig5 output missing content:\n%s", s)
	}

	res6, err := Fig6CoreUsage([]Fig6Config{{Label: "8P_2c_N1", Processes: 8, Cores: 2, Domain: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s := Fig6Heat(res6); !strings.Contains(s, "8P_2c_N1") {
		t.Errorf("Fig6Heat missing label:\n%s", s)
	}
	if s := Fig7Heat(res6); !strings.Contains(s, "remote") {
		t.Errorf("Fig7Heat missing title:\n%s", s)
	}

	res8 := Fig8Compression([]int{2})
	if s := FormatCodec("Figure 8a", res8, []int{2}); !strings.Contains(s, "Figure 8a") || !strings.Contains(s, "H") {
		t.Errorf("FormatCodec output:\n%s", s)
	}

	res11, err := Fig11Network([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig11(res11); !strings.Contains(s, "Figure 11") {
		t.Errorf("FormatFig11 output:\n%s", s)
	}

	res12, err := Fig12EndToEnd([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig12(res12); !strings.Contains(s, "recv@N1") {
		t.Errorf("FormatFig12 output:\n%s", s)
	}

	rt, osr, factor, err := Fig14Speedup()
	if err != nil {
		t.Fatal(err)
	}
	s = FormatFig14(rt, osr, factor)
	if !strings.Contains(s, "total") || !strings.Contains(s, "1.48X") {
		t.Errorf("FormatFig14 output:\n%s", s)
	}
}

func TestHeatCell(t *testing.T) {
	if heatCell(0, 10) != "." {
		t.Error("zero value should render '.'")
	}
	if heatCell(10, 10) != "9" {
		t.Error("max value should render '9'")
	}
	if heatCell(5, 0) != "." {
		t.Error("zero max should render '.'")
	}
}

// TestFig12BottleneckShifts asserts the paper's qualitative §4.1 claim:
// the binding stage moves from compression (A at any thread count) to
// later stages as compression threads grow. The column is the limiter
// obs blames: the queue in front of the binding stage.
func TestFig12BottleneckShifts(t *testing.T) {
	res, err := Fig12EndToEnd([]int{8})
	if err != nil {
		t.Fatalf("Fig12EndToEnd: %v", err)
	}
	get := func(cfg string) string {
		for _, r := range res {
			if r.Config == cfg && r.RecvDomain == 1 {
				return r.Bottleneck
			}
		}
		t.Fatalf("missing config %s", cfg)
		return ""
	}
	if b := get("A"); b != "compq" {
		t.Errorf("config A bottleneck = %q, want compq", b)
	}
	// E has only 4 decompression threads against 32 compressors: the
	// bottleneck has shifted to decompression.
	if b := get("E"); b != "decq" {
		t.Errorf("config E bottleneck = %q, want decq", b)
	}
}
