// Benchmarks regenerating the paper's evaluation: one testing.B target
// per table/figure (reporting the headline Gbps as custom metrics), the
// mechanism ablations of DESIGN.md §6, and the elastic pool's resize
// cycle. The real pipeline's end-to-end numbers come from the repository
// benchmark (BENCHMARK.json, benchmark/run.sh); the codec and hand-off
// micro-benchmarks live beside their packages (internal/lz4,
// internal/bitshuffle, internal/pipeline). Run:
//
//	go test -bench=. -benchmem
package numastream_test

import (
	"runtime"
	"testing"

	"numastream/internal/experiments"
	"numastream/internal/pipeline"
)

// --- Figure/table reproductions ------------------------------------

// BenchmarkFig5Placement regenerates Figure 5's contended point: 32
// streaming processes per placement scenario.
func BenchmarkFig5Placement(b *testing.B) {
	for _, placement := range experiments.Fig5Placements {
		b.Run(placement, func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig5Streaming([]int{32})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Placement == placement {
						gbps = r.Gbps
					}
				}
			}
			b.ReportMetric(gbps, "Gbps")
		})
	}
}

// BenchmarkFig6CoreUsage regenerates Figures 6 and 7's per-core data.
func BenchmarkFig6CoreUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6CoreUsage(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7RemoteAccess measures the remote-traffic variant of the
// core grid (same runs, Figure 7's metric).
func BenchmarkFig7RemoteAccess(b *testing.B) {
	var remote float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6CoreUsage([]experiments.Fig6Config{
			{Label: "32P_16c_N0", Processes: 32, Cores: 16, Domain: 0},
		})
		if err != nil {
			b.Fatal(err)
		}
		remote = 0
		for _, cs := range res[0].CoreStats {
			remote += cs.RemoteBytes
		}
	}
	b.ReportMetric(remote/1e9, "remote-GB")
}

// BenchmarkFig8Compression regenerates Figure 8a (configuration A vs E
// at 32 threads, the "nearly halved" comparison).
func BenchmarkFig8Compression(b *testing.B) {
	var a32, e32 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8Compression([]int{32})
		ra, _ := experiments.CodecResultFor(res, "A", 32)
		re, _ := experiments.CodecResultFor(res, "E", 32)
		a32, e32 = ra.Gbps, re.Gbps
	}
	b.ReportMetric(a32, "A32-Gbps")
	b.ReportMetric(e32, "E32-Gbps")
}

// BenchmarkFig9Decompression regenerates Figure 9a's 16-thread point
// (split vs single-socket contention).
func BenchmarkFig9Decompression(b *testing.B) {
	var a16, e16 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9Decompression([]int{16})
		ra, _ := experiments.CodecResultFor(res, "A", 16)
		re, _ := experiments.CodecResultFor(res, "E", 16)
		a16, e16 = ra.Gbps, re.Gbps
	}
	b.ReportMetric(a16, "A16-Gbps")
	b.ReportMetric(e16, "E16-Gbps")
}

// BenchmarkFig11NetworkPlacement regenerates Figure 11's divergence
// point (3 thread pairs, configurations A vs B).
func BenchmarkFig11NetworkPlacement(b *testing.B) {
	var a3, b3 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11Network([]int{3})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			switch r.Config {
			case "A":
				a3 = r.Gbps
			case "B":
				b3 = r.Gbps
			}
		}
	}
	b.ReportMetric(a3, "A-Gbps")
	b.ReportMetric(b3, "B-Gbps")
}

// BenchmarkFig12EndToEnd regenerates Figure 12's headline cells: the 37
// Gbps baseline (A) and the tuned configuration (F/G at 8 threads,
// receiver on NUMA 1).
func BenchmarkFig12EndToEnd(b *testing.B) {
	var baseline, best float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12EndToEnd([]int{8})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Config == "A" && r.RecvDomain == 1 {
				baseline = r.E2EGbps
			}
			if r.Config == "F" && r.RecvDomain == 1 {
				best = r.E2EGbps
			}
		}
	}
	b.ReportMetric(baseline, "baseline-Gbps")
	b.ReportMetric(best, "tuned-Gbps")
	if baseline > 0 {
		b.ReportMetric(best/baseline, "speedup-x")
	}
}

// BenchmarkFig14MultiStream regenerates Figure 14: four concurrent
// streams, runtime placement vs the OS baseline.
func BenchmarkFig14MultiStream(b *testing.B) {
	for _, mode := range []experiments.Fig14Mode{experiments.ModeRuntime, experiments.ModeOS} {
		b.Run(string(mode), func(b *testing.B) {
			var net, e2e float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig14MultiStream(mode)
				if err != nil {
					b.Fatal(err)
				}
				net, e2e = res.TotalNet, res.TotalE2E
			}
			b.ReportMetric(net, "net-Gbps")
			b.ReportMetric(e2e, "e2e-Gbps")
		})
	}
}

// --- Mechanism ablations (DESIGN.md §6) -----------------------------

func BenchmarkAblationRemotePenalty(b *testing.B) {
	var r experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblateRemotePenalty()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With*100, "with-pct")
	b.ReportMetric(r.Without*100, "without-pct")
}

func BenchmarkAblationUncoreContention(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblateUncoreContention()
	}
	b.ReportMetric(r.With*100, "with-pct")
	b.ReportMetric(r.Without*100, "without-pct")
}

func BenchmarkAblationContextSwitchTax(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblateContextSwitchTax()
	}
	b.ReportMetric(r.With*100, "with-pct")
	b.ReportMetric(r.Without*100, "without-pct")
}

func BenchmarkAblationMigrationTax(b *testing.B) {
	var r experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblateMigrationTax()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With, "with-x")
	b.ReportMetric(r.Without, "without-x")
}

// --- Substrate micro-benchmarks -------------------------------------

// BenchmarkElasticPoolGrowShrink measures one full elastic churn cycle
// against a live pool: grow one worker onto the next domain, shrink it
// back, then wait for the retirement to land (Live back at baseline).
// This is the end-to-end latency the adaptive placement controller pays
// per resize step, including the lazy chunk-boundary handshake.
func BenchmarkElasticPoolGrowShrink(b *testing.B) {
	stop := make(chan struct{})
	pool := pipeline.StartPool(pipeline.PoolConfig{
		Name: "bench", Workers: 2,
	}, func(w *pipeline.Worker) error {
		for {
			if w.Retiring() {
				return nil
			}
			select {
			case <-stop:
				return nil
			default:
				runtime.Gosched()
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dom := i % 2
		if pool.Grow(1, dom) != 1 {
			b.Fatal("grow refused")
		}
		if pool.Shrink(1, dom) != 1 {
			b.Fatal("shrink refused")
		}
		for pool.Live() != 2 {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	close(stop)
	if err := pool.Wait(); err != nil {
		b.Fatal(err)
	}
}
