// Command experiments regenerates the paper's evaluation: every table
// and figure of §3 and §4, printed in the paper's shape. See
// EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	experiments -fig all
//	experiments -fig 5        # receiver throughput vs #processes
//	experiments -fig 6 -fig 7 # core usage / remote access heatmaps
//	experiments -fig 8 -quick # compression sweep, reduced thread set
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"numastream/internal/experiments"
	"numastream/internal/faults"
	"numastream/internal/metrics"
	"numastream/internal/obs"
	"numastream/internal/telemetry"
)

type figList []string

func (f *figList) String() string { return strings.Join(*f, ",") }
func (f *figList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var figs figList
	quick := flag.Bool("quick", false, "reduced sweeps for a fast run")
	tracePath := flag.String("trace", "", "write a Chrome trace of the Fig 14 gateway to this file")
	csvDir := flag.String("csv", "", "also write figN.csv files into this directory")
	rssStreams := flag.Int("rss", 0, "run the RSS steering study with this many streams (extension)")
	real := flag.Bool("real", false, "run the real-execution loopback sweep on this machine")
	dualNIC := flag.Bool("dual-nic", false, "run the dual-NIC gateway study (extension)")
	degraded := flag.Bool("degraded", false, "run the degraded-mode link fault simulation (robustness)")
	degradedReal := flag.Bool("degraded-real", false, "run the real-mode fault injection loopback (robustness)")
	churn := flag.Bool("churn", false, "run the churn-storm simulation: a seeded topology schedule crashes senders and relays on a multi-hop deployment (robustness)")
	churnReal := flag.Bool("churn-real", false, "run the real-mode churn drill: relay forwarders killed and restarted mid-stream, exactly-once ledger on the gateway (robustness)")
	adaptDrill := flag.Bool("adapt", false, "run the adaptive placement convergence drill: from a deliberately bad config (1 compress worker, everything on one socket) the feedback controller must converge to within 10% of the tuned configuration, deterministically (test)")
	adaptSeed := flag.Int64("adapt-seed", 1, "adapt drill RNG seed (-adapt)")
	adaptJSON := flag.String("adapt-json", "", "write the -adapt drill result (throughputs, action log, regime story) as JSON to this file; byte-identical across runs with the same seed")
	fleetDrill := flag.Bool("fleet", false, "run the fleet control-tower drills: throttled-uplink attribution and churn availability alert, each checked against the drill contract (observability)")
	profileDir := flag.String("profile-dir", "", "directory for regime/alert-triggered pprof captures during -fleet (default: none captured)")
	churnSeed := flag.Int64("churn-seed", 11, "churn storm RNG seed (-churn)")
	churnFile := flag.String("churn-file", "", "topology event file replacing the generated storm: '<t> <NODEUP|NODEDOWN|LINKUP|LINKDOWN> <name>' lines, OLSR '<t> <UP|DOWN> <from> <to>' also accepted")
	traceWire := flag.String("trace-wire", "", "run the wire-journey loopback (real pipeline, WireTrace on) and write the merged cross-process Chrome trace to this file")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /status, /debug/vars and /debug/pprof on this address; real-mode harnesses record into the served registry")
	report := flag.String("report", "", "write an end-of-run self-diagnosis report to this file (markdown when the path ends in .md, JSON otherwise); -degraded reports the simulation's virtual-time windows")
	flag.Var(&figs, "fig", "figure to regenerate (5,6,7,8,9,11,12,14 or all); repeatable")
	flag.Parse()

	if len(figs) == 0 {
		figs = figList{"all"}
	}
	want := map[string]bool{}
	for _, f := range figs {
		if f == "all" {
			for _, k := range []string{"5", "6", "7", "8", "9", "11", "12", "14"} {
				want[k] = true
			}
			continue
		}
		want[f] = true
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	// The live registry: nil unless -telemetry-addr or -report needs one,
	// in which case the real-mode harnesses share it so the endpoint and
	// the report see them mid-run.
	var reg *metrics.Registry
	var obsEng *obs.Engine
	if *telemetryAddr != "" || *report != "" {
		reg = metrics.NewRegistry()
	}
	if *report != "" {
		// Short windows: the loopback drills run for seconds, and the
		// report should still resolve several verdict windows.
		obsEng = obs.NewEngine(reg, obs.Options{Node: "experiments", Interval: 100 * time.Millisecond})
		obsEng.Start()
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.ServeWith(*telemetryAddr, reg, telemetry.Options{Obs: obsEng})
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /status, /debug/vars, /debug/pprof)\n", srv.Addr())
	}

	// The degraded simulation self-diagnoses on virtual time; its windows
	// take precedence in the report over the wall-clock engine (which
	// sees nothing during a simulated run).
	var simWindows []obs.Window
	var simRegimes []obs.Regime

	// writeCSV writes one figure's CSV when -csv is set.
	writeCSV := func(name string, emit func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fail(err)
		}
		if err := emit(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	if want["5"] {
		counts := experiments.Fig5ProcessCounts
		if *quick {
			counts = []int{4, 32, 128}
		}
		res, err := experiments.Fig5Streaming(counts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig5(res))
		writeCSV("fig5.csv", func(w *os.File) error { return experiments.CSVFig5(w, res) })
	}
	if want["6"] || want["7"] {
		res, err := experiments.Fig6CoreUsage(nil)
		if err != nil {
			fail(err)
		}
		if want["6"] {
			fmt.Println(experiments.Fig6Heat(res))
		}
		if want["7"] {
			fmt.Println(experiments.Fig7Heat(res))
		}
	}
	if want["8"] {
		counts := experiments.Fig8ThreadCounts
		if *quick {
			counts = []int{8, 16, 32}
		}
		res := experiments.Fig8Compression(counts)
		fmt.Println(experiments.FormatCodec(
			"Figure 8a: compression throughput (Gbps, uncompressed side) per Table 1 configuration",
			res, counts))
		fmt.Println(experiments.CodecHeat(
			"Figure 8b: core usage at 16 and 32 compression threads (0-9 = busy fraction)",
			res, intersect(counts, []int{16, 32})))
		writeCSV("fig8.csv", func(w *os.File) error { return experiments.CSVCodec(w, res) })
	}
	if want["9"] {
		counts := experiments.Fig9ThreadCounts
		if *quick {
			counts = []int{8, 16}
		}
		res := experiments.Fig9Decompression(counts)
		fmt.Println(experiments.FormatCodec(
			"Figure 9a: decompression throughput (Gbps, uncompressed side) per Table 1 configuration",
			res, counts))
		fmt.Println(experiments.CodecHeat(
			"Figure 9b: core usage at 8 and 16 decompression threads (0-9 = busy fraction)",
			res, intersect(counts, []int{8, 16})))
		writeCSV("fig9.csv", func(w *os.File) error { return experiments.CSVCodec(w, res) })
	}
	if want["11"] {
		counts := experiments.Fig11ThreadCounts
		if *quick {
			counts = []int{1, 2, 3, 4}
		}
		res, err := experiments.Fig11Network(counts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig11(res))
		writeCSV("fig11.csv", func(w *os.File) error { return experiments.CSVFig11(w, res) })
	}
	if want["12"] {
		counts := experiments.Fig12ThreadCounts
		if *quick {
			counts = []int{1, 8}
		}
		res, err := experiments.Fig12EndToEnd(counts)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig12(res))
		writeCSV("fig12.csv", func(w *os.File) error { return experiments.CSVFig12(w, res) })
	}
	if *real {
		res, err := experiments.RealScaling([]int{1, 2, 4}, 48, 512<<10)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatReal(res))
	}
	if *dualNIC {
		res, err := experiments.DualNICStudy()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatDualNIC(res))
	}
	if *degraded {
		res, err := experiments.DegradedSim()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatDegradedSim(res))
		simWindows, simRegimes = res.Windows, res.Regimes
	}
	if *degradedReal {
		chunks, chunkBytes := 64, 512<<10
		if *quick {
			chunks, chunkBytes = 32, 128<<10
		}
		res, err := experiments.DegradedLoopbackInto(reg, chunks, chunkBytes)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatDegradedReal(res))
	}
	if *churn || *churnReal {
		var sched faults.TopoSchedule
		if *churnFile != "" {
			f, err := os.Open(*churnFile)
			if err != nil {
				fail(err)
			}
			sched, err = faults.ParseTopoSchedule(f)
			f.Close()
			if err != nil {
				fail(err)
			}
		}
		if *churn {
			res, err := experiments.ChurnSim(*churnSeed, sched)
			if err != nil {
				fail(err)
			}
			fmt.Println(experiments.FormatChurnSim(res))
		}
		if *churnReal {
			chunks, chunkBytes := 96, 128<<10
			if *quick {
				chunks, chunkBytes = 32, 32<<10
			}
			res, err := experiments.ChurnLoopbackInto(reg, chunks, chunkBytes, sched)
			if err != nil {
				fail(err)
			}
			fmt.Println(experiments.FormatChurnReal(res))
		}
	}
	if *fleetDrill {
		for _, run := range []struct {
			name string
			fn   func(string) (experiments.FleetSimResult, error)
		}{
			{"throttled-uplink", experiments.FleetThrottledUplinkSim},
			{"churn-alert", experiments.FleetChurnAlertSim},
		} {
			res, err := run.fn(*profileDir)
			if err != nil {
				fail(err)
			}
			fmt.Println(experiments.FormatFleetSim(res))
			if err := res.Check(); err != nil {
				fail(fmt.Errorf("fleet drill %s: %w", run.name, err))
			}
			fired, resolved := 0, 0
			for _, a := range res.Alerts {
				fired += a.Fired
				resolved += a.Resolved
			}
			fmt.Printf("fleet drill %s: PASS — dominant %s@%s:%s, alerts fired/resolved %d/%d\n",
				run.name, res.Report.Dominant, res.Report.DominantNode, res.Report.DominantStage, fired, resolved)
		}
	}
	if *adaptDrill {
		res, err := experiments.AdaptSim(*adaptSeed)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatAdaptSim(res))
		if err := res.Check(); err != nil {
			fail(fmt.Errorf("adapt drill: %w", err))
		}
		if *adaptJSON != "" {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*adaptJSON, append(out, '\n'), 0o644); err != nil {
				fail(err)
			}
		}
		fmt.Printf("adapt drill: PASS — converged to %.0f%% of tuned with %d actions over %d windows\n",
			100*res.Converged(), len(res.Actions), res.Windows)
	}
	if *traceWire != "" {
		chunks, chunkBytes := 64, 256<<10
		if *quick {
			chunks, chunkBytes = 24, 64<<10
		}
		tr, res, err := experiments.WireJourneyLoopback(reg, chunks, chunkBytes)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatJourney(res))
		f, err := os.Create(*traceWire)
		if err != nil {
			fail(err)
		}
		if err := tr.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("merged journey trace (%d events) written to %s — open at ui.perfetto.dev\n", tr.Len(), *traceWire)
	}
	if *rssStreams > 0 {
		res, err := experiments.RSSStudy(*rssStreams)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatRSS(res))
	}
	if want["14"] {
		rt, osr, factor, err := experiments.Fig14Speedup()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig14(rt, osr, factor))
		writeCSV("fig14.csv", func(w *os.File) error { return experiments.CSVFig14(w, rt, osr) })

		if *tracePath != "" {
			tr, _, err := experiments.Fig14Trace(experiments.ModeRuntime)
			if err != nil {
				fail(err)
			}
			f, err := os.Create(*tracePath)
			if err != nil {
				fail(err)
			}
			if err := tr.WriteJSON(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("gateway trace (%d events) written to %s; per-stage busy time:\n%s\n",
				tr.Len(), *tracePath, tr.Summary())
		}
	}

	if *report != "" {
		var rep obs.Report
		if len(simWindows) > 0 {
			rep = obs.BuildReport("degraded-sim", simWindows, simRegimes, 0)
		} else {
			obsEng.Stop()
			rep = obsEng.Report()
		}
		if err := obs.WriteReportFile(*report, rep); err != nil {
			fail(err)
		}
		fmt.Printf("self-diagnosis report written to %s (dominant regime: %s)\n", *report, rep.Dominant)
	}
}

// intersect returns the values of want that appear in have.
func intersect(have, want []int) []int {
	var out []int
	for _, w := range want {
		for _, h := range have {
			if h == w {
				out = append(out, w)
				break
			}
		}
	}
	return out
}
