// Command loadgen drives the thousand-stream gateway drills: a
// seedable, rate-limited stream fleet against the sharded receive
// path, in either deterministic simulation or real loopback execution.
//
// Usage:
//
//	loadgen --streams 1000 --seed 42                 # sim: byte-identical per seed
//	loadgen --mode loopback --streams 256 --assert   # real sockets, fairness-checked
//	loadgen --streams 100 --fault-plan 'reset@w10, stall@1MB:50ms, seed=7'
//	loadgen --mode loopback --streams 256 --telemetry-addr :9200 \
//	    --slo 'fair_share>=0.5,holes<=0' --cluster-report soak-cluster.md
//
// The sim renders the same bytes for the same flags on any machine:
// no wall clock is read, so --json output can be diffed across runs
// and hosts. Loopback runs the real pipeline (real senders, sockets,
// shards, credits, ledger); its timings are wall-clock, its accounting
// is still exact.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"numastream/internal/adapt"
	"numastream/internal/experiments"
	"numastream/internal/faults"
	"numastream/internal/fleet"
	"numastream/internal/metrics"
	"numastream/internal/numa"
	"numastream/internal/obs"
	"numastream/internal/pipeline"
	"numastream/internal/telemetry"
)

func main() {
	mode := flag.String("mode", "sim", "sim (deterministic virtual time) | loopback (real sockets)")
	streams := flag.Int("streams", 1000, "concurrent streams")
	qps := flag.Float64("qps", 100, "per-stream chunk production rate")
	duration := flag.Duration("duration", time.Second, "per-stream production span; chunks per stream = qps * duration unless -chunks is set")
	chunks := flag.Int("chunks", 0, "chunks per stream (overrides -duration)")
	chunkBytes := flag.Int("chunk-bytes", 64<<10, "bytes per chunk")
	maxConc := flag.Int("max-concurrency", 0, "cap on concurrently active streams; 0 = all at once")
	seed := flag.Int64("seed", 1, "RNG seed: jitter, fault victims")
	faultPlan := flag.String("fault-plan", "", "fault plan DSL: 'reset@w10, stall@1MB:50ms, corrupt@w5:bit3, refuse:0-2, seed=7'")
	shards := flag.Int("shards", 0, "gateway receive shards; 0 = mode default (sim: 4, loopback: NUMA-aligned)")
	credit := flag.Int("credit", 0, "per-stream credit window; 0 = default (8)")
	maxStreams := flag.Int("max-streams", 0, "admission cap; 0 = unlimited (sim only)")
	streamCap := flag.Int("stream-cap", 0, "metrics registry per-stream series cap; 0 = default (64)")
	jsonPath := flag.String("json", "", "write the machine-readable report to this file ('-' = stdout, replacing the table)")
	assertRun := flag.Bool("assert", false, "exit nonzero unless every ledger closed and -min-share held")
	minShare := flag.Float64("min-share", 0.5, "fairness floor for -assert: slowest stream >= this share of fair per-stream throughput")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live /metrics, /status, /cluster and /alerts on this address while a loopback soak runs (loopback mode only)")
	statusInterval := flag.Duration("status-interval", 500*time.Millisecond, "obs snapshot interval for -telemetry-addr; drives how fresh /status and /cluster stay during the soak")
	sloSpec := flag.String("slo", "", "SLO clauses for -telemetry-addr, e.g. 'e2e_p99_ms<=250,fair_share>=0.5,holes<=0'")
	clusterReport := flag.String("cluster-report", "", "write the end-of-soak cluster report to this file (markdown when it ends in .md, JSON otherwise)")
	adaptOn := flag.Bool("adapt", false, "run the adaptive placement controller against the loopback gateway: it watches the soak's self-diagnosis windows and resizes the elastic receive/decompress pools live; prints the action log at exit (loopback mode only)")
	nicDomain := flag.Int("nic-domain", -1, "NUMA domain owning the data NIC for -adapt wire-bound migration (-1 = unknown, migration disabled)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}

	cfg := experiments.ThousandStreamConfig{
		Streams:        *streams,
		Chunks:         *chunks,
		ChunkBytes:     *chunkBytes,
		QPS:            *qps,
		Shards:         *shards,
		Credit:         *credit,
		MaxStreams:     *maxStreams,
		StreamCap:      *streamCap,
		MaxConcurrency: *maxConc,
		Seed:           *seed,
	}
	if cfg.Chunks <= 0 {
		cfg.Chunks = int(*qps * duration.Seconds())
		if cfg.Chunks < 1 {
			cfg.Chunks = 1
		}
	}
	if *faultPlan != "" {
		plan, err := faults.ParseFaultPlan(*faultPlan)
		if err != nil {
			fail(err)
		}
		cfg.Plan = plan
	}

	// Live telemetry rides the loopback soak: the drill records into a
	// shared registry, an obs engine snapshots it on a wall-clock
	// cadence, and a single-node fleet aggregator layers SLO alerts on
	// top — so /status, /cluster and /alerts answer live mid-soak. The
	// sim runs in virtual time with nothing live to scrape, so these
	// flags are loopback-only.
	liveTelemetry := *telemetryAddr != "" || *sloSpec != "" || *clusterReport != "" || *adaptOn
	var (
		obsEng *obs.Engine
		agg    *fleet.Aggregator
		ctrl   *adapt.Controller
	)
	if liveTelemetry {
		if *mode != "loopback" {
			fail(fmt.Errorf("-telemetry-addr/-slo/-cluster-report/-adapt need -mode loopback (the sim runs in virtual time)"))
		}
		var slos []fleet.SLO
		if *sloSpec != "" {
			parsed, err := fleet.ParseSLOs(*sloSpec)
			if err != nil {
				fail(err)
			}
			slos = parsed
		}
		reg := metrics.NewRegistry()
		cfg.Registry = reg
		obsOpts := obs.Options{Node: "thousand-gw", Interval: *statusInterval}
		if *adaptOn {
			// The gateway runs receive 4 / decompress 2; let adaptation
			// refine the sizing up to twice that, never past it.
			cfg.Controls = pipeline.NewControls()
			pol := adapt.DefaultPolicy()
			pol.NICDomain = *nicDomain
			if topo, ok := numa.Discover(); ok {
				for _, n := range topo.Nodes {
					pol.Domains = append(pol.Domains, n.ID)
				}
			}
			pol.MaxWorkers = map[string]int{"receive": 8, "decompress": 4}
			ctrl = adapt.New(pol, cfg.Controls)
			obsOpts.OnWindow = ctrl.OnWindow
		}
		obsEng = obs.NewEngine(reg, obsOpts)
		if ctrl != nil {
			ctrl.BindEngine(obsEng)
		}
		obsEng.Start()
		agg = fleet.New(fleet.Options{Fleet: "loadgen", Interval: *statusInterval, SLOs: slos})
		agg.AddSource(fleet.EngineSource("thousand-gw", fleet.RoleGateway, obsEng))
		agg.Start()
		if *telemetryAddr != "" {
			srv, err := telemetry.ServeWith(*telemetryAddr, reg, telemetry.Options{Obs: obsEng, Fleet: agg, Adapt: ctrl})
			if err != nil {
				fail(err)
			}
			defer srv.Close()
			fmt.Printf("loadgen: telemetry on http://%s (/metrics, /status, /cluster, /alerts)\n", srv.Addr())
		}
	}

	var (
		res experiments.ThousandStreamResult
		err error
	)
	switch *mode {
	case "sim":
		res, err = experiments.ThousandStreamSim(cfg)
	case "loopback":
		res, err = experiments.ThousandStreamLoopback(cfg)
	default:
		fail(fmt.Errorf("unknown -mode %q (want sim or loopback)", *mode))
	}
	if err != nil {
		fail(err)
	}

	if liveTelemetry {
		obsEng.Stop()
		agg.Stop()
		for tick := 0; tick < 2 && len(agg.Windows()) == 0; tick++ {
			// A short soak can finish inside one interval; the first
			// tick seeds the aggregator, the second builds a window,
			// so the report always has something to say.
			obsEng.Tick()
			agg.Tick()
		}
		if *clusterReport != "" {
			rep := agg.Report()
			if err := obs.WriteReportFile(*clusterReport, rep); err != nil {
				fail(err)
			}
			fmt.Printf("loadgen: cluster report written to %s (dominant: %s)\n", *clusterReport, rep.Dominant)
		}
	}

	if ctrl != nil {
		actions := ctrl.Actions()
		fmt.Printf("loadgen: adaptive placement made %d actions\n", len(actions))
		if len(actions) > 0 {
			fmt.Print(adapt.FormatActions(actions))
		}
	}
	if *jsonPath != "-" {
		fmt.Print(experiments.FormatThousandStream(res))
	}
	if *jsonPath != "" {
		b, err := res.JSON()
		if err != nil {
			fail(err)
		}
		if *jsonPath == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fail(err)
		}
	}
	if *assertRun {
		if err := res.Check(*minShare); err != nil {
			fail(err)
		}
		fmt.Printf("loadgen: PASS — %d streams, ledger closed, min share %.0f%% >= %.0f%%\n",
			res.Admitted, res.MinShare*100, *minShare*100)
	}
}
