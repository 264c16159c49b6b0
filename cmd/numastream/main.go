// Command numastream runs one node of the streaming runtime over real
// TCP, driven by a JSON configuration file from confgen. A sender node
// generates synthetic tomography projections (or patterned chunks),
// compresses them per its config, and pushes them to the receiver; the
// receiver pulls, decompresses and reports throughput — the real-
// execution counterpart of the paper's deployment.
//
// Usage:
//
//	numastream -config receiver.json -bind :5555 -chunks 64
//	numastream -config sender.json -peers host:5555 -chunks 64
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"numastream/internal/adapt"
	"numastream/internal/faults"
	"numastream/internal/fleet"
	"numastream/internal/metrics"
	"numastream/internal/numa"
	"numastream/internal/obs"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
	"numastream/internal/telemetry"
	"numastream/internal/tomo"
	"numastream/internal/trace"
)

func main() {
	var (
		configPath = flag.String("config", "", "node config JSON (required)")
		peers      = flag.String("peers", "", "comma-separated receiver addresses (sender)")
		bind       = flag.String("bind", ":5555", "listen address (receiver)")
		chunks     = flag.Int("chunks", 32, "chunks to stream / expect")
		scale      = flag.Int("scale", 4, "detector downscale factor (1 = full 11.06 MB chunks)")
		synthetic  = flag.Bool("synthetic", false, "use patterned chunks instead of tomography projections")
		serve      = flag.Bool("serve", false, "receiver: serve until interrupted instead of expecting -chunks")
		tracePath  = flag.String("trace", "", "write a Chrome trace of this node's workers to the file; on a receiver fed by a -trace-wire sender this is the merged cross-host journey trace")
		traceWire  = flag.Bool("trace-wire", false, "sender: ship a per-chunk trace context on every frame so the receiver can stitch cross-host chunk journeys (a forwarder hop drops it)")

		// Adaptive placement (the feedback controller).
		adaptOn   = flag.Bool("adapt", false, "enable the online adaptive placement controller: it watches the self-diagnosis windows and grows/shrinks/migrates the elastic worker pools at runtime; the action log lands on /status?actions=1 and in -report")
		nicDomain = flag.Int("nic-domain", -1, "NUMA domain owning the data NIC, the target of wire-bound send migration (-1 = unknown, migration disabled)")

		// Telemetry (the flight recorder).
		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics (Prometheus text), /status (live bottleneck self-diagnosis), /debug/vars and /debug/pprof on this address while the node runs")
		reportPath    = flag.String("report", "", "write an end-of-run self-diagnosis report here at exit (markdown when the path ends in .md, JSON otherwise)")
		reportEvery   = flag.Duration("report-interval", 500*time.Millisecond, "snapshot-diff window width for /status and -report")

		// Fleet control tower (cluster-wide aggregation).
		fleetSpec     = flag.String("fleet", "", "aggregate a fleet: comma-separated node=role=addr peers to scrape over HTTP (role: sender|relay|gateway), e.g. 'updraft1=sender=host:9100,gw=gateway=host:9101'; this node's own engine joins automatically; serves /cluster and /alerts on -telemetry-addr")
		sloSpec       = flag.String("slo", "", "cluster SLOs evaluated per fleet window, e.g. 'e2e_p99_ms<=250,fair_share>=0.5,holes<=0'; alert states land on /alerts and in -cluster-report")
		fleetEvery    = flag.Duration("fleet-interval", time.Second, "fleet aggregation tick interval")
		clusterReport = flag.String("cluster-report", "", "write an end-of-run cluster report here at exit (markdown when the path ends in .md, JSON otherwise); implies fleet aggregation even with no -fleet peers")
		profileDir    = flag.String("profile-dir", "", "capture rate-limited pprof CPU+heap artifacts into this directory when a cluster SLO alert fires or the fleet verdict enters a degraded regime")

		// Robustness (sender).
		sendHorizon  = flag.Duration("send-horizon", 0, "sender: fail sends after all peers stay dead this long (0 = wait forever)")
		writeTimeout = flag.Duration("write-timeout", 0, "sender: per-message write deadline (0 = none)")

		// Robustness (receiver).
		failHard     = flag.Bool("fail-hard", false, "receiver: abort on the first malformed or corrupt chunk instead of quarantining")
		maxBadChunks = flag.Int("max-bad-chunks", 0, "receiver: abort after more than this many quarantined chunks (0 = no limit)")
		exactlyOnce  = flag.Bool("exactly-once", false, "receiver: dedup repeated (stream, seq) chunks with the exactly-once ledger; dup_drops and ledger_abandoned land in -telemetry-addr's /metrics")

		// Thousand-stream gateway (receiver scale).
		shardsFlag   = flag.Int("shards", 0, "receiver: receive queues streams are spread over by stream hash — 0 = a single inbox, -1 = one shard per NUMA domain, >0 explicit shard count")
		maxStreams   = flag.Int("max-streams", 0, "receiver: admission cap on concurrent streams; streams past it are rejected and counted in streams_rejected (0 = unlimited)")
		streamCredit = flag.Int("stream-credit", 0, "receiver: per-stream credit window bounding one stream's in-flight chunks; a stalled consumer blocks only its own stream (0 = 8 with -shards, no credit gate on a single inbox)")
		streamCap    = flag.Int("stream-cap", 0, "per-stream metrics series cap: distinct stream ids tracked before folding into the _stream_other bucket (default 64)")

		// Fault injection (sender transport; for drills and tests).
		faultPlanStr = flag.String("fault-plan", "", "sender: fault plan DSL, e.g. 'reset@w10, stall@1MB:50ms, corrupt@2MB:bit3, seed=7'")
	)
	flag.Parse()

	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "numastream: -config is required")
		os.Exit(2)
	}
	plan, err := faults.ParseFaultPlan(*faultPlanStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "numastream: -fault-plan: %v\n", err)
		os.Exit(2)
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	cfg, err := runtime.DecodeConfig(data)
	if err != nil {
		fatal(err)
	}

	topo, ok := numa.Discover()
	if !ok {
		fmt.Fprintln(os.Stderr, "numastream: NUMA discovery unavailable; placement will be best-effort")
	}

	// A config error surfaces from RunSender/RunReceiver below.
	if pinned, total, err := pipeline.PinnedWorkers(topo, cfg); err == nil {
		allowed := "unknown"
		if cpus, err := numa.Allowed(); err == nil {
			allowed = numa.FormatCPUList(cpus)
		}
		fmt.Printf("placement: %d of %d workers own a pinned thread; CPUs allowed: %s\n", pinned, total, allowed)
	}

	reg := metrics.NewRegistry()
	if *streamCap > 0 {
		reg.SetStreamCap(*streamCap)
	}
	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(1 << 20)
	}
	// The self-diagnosis engine rides along whenever something surfaces
	// it: the /status endpoint, the -report artifact, or the fleet
	// aggregator (which folds this node's own diagnosis in).
	fleetActive := *fleetSpec != "" || *sloSpec != "" || *clusterReport != ""

	// The adaptive placement controller needs two hookups made before
	// the engine exists: the elastic pool controls (its hands) and the
	// window stream (its eyes). -adapt implies the obs engine.
	var controls *pipeline.Controls
	var ctrl *adapt.Controller
	if *adaptOn {
		controls = pipeline.NewControls()
		ctrl = adapt.New(adaptPolicy(cfg, topo, *nicDomain), controls)
	}
	var obsEng *obs.Engine
	if *telemetryAddr != "" || *reportPath != "" || fleetActive || *adaptOn {
		opts := obs.Options{Interval: *reportEvery, Node: cfg.Node}
		if ctrl != nil {
			opts.OnWindow = ctrl.OnWindow
		}
		obsEng = obs.NewEngine(reg, opts)
		obsEng.Start()
	}
	var agg *fleet.Aggregator
	if fleetActive {
		slos, err := fleet.ParseSLOs(*sloSpec)
		if err != nil {
			fatal(err)
		}
		fOpts := fleet.Options{Fleet: cfg.Node, Interval: *fleetEvery, SLOs: slos}
		if *profileDir != "" {
			fOpts.Profiler = &fleet.Profiler{Dir: *profileDir}
		}
		agg = fleet.New(fOpts)
		selfRole := fleet.RoleSender
		if cfg.Role == runtime.Receiver {
			selfRole = fleet.RoleGateway
		}
		agg.AddSource(fleet.EngineSource(cfg.Node, selfRole, obsEng))
		if err := addFleetPeers(agg, *fleetSpec); err != nil {
			fatal(err)
		}
		agg.Start()
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.ServeWith(*telemetryAddr, reg, telemetry.Options{Tracer: tracer, Obs: obsEng, Fleet: agg, Adapt: ctrl})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		extra := "/healthz, /status, /debug/vars, /debug/pprof"
		if tracer != nil {
			extra += ", /trace"
		}
		if agg != nil {
			extra += ", /cluster, /alerts"
		}
		fmt.Printf("telemetry: http://%s/metrics (also %s)\n", srv.Addr(), extra)
	}
	// A receiver that quarantined every chunk it accounted for ran to
	// completion as a library call, but delivered nothing: the binary
	// says so in its exit status once the reports are written.
	var nothingDelivered error
	switch cfg.Role {
	case runtime.Sender:
		if *peers == "" {
			fmt.Fprintln(os.Stderr, "numastream: sender needs -peers")
			os.Exit(2)
		}
		sOpts := pipeline.SenderOptions{
			Cfg:          cfg,
			Topo:         topo,
			Peers:        strings.Split(*peers, ","),
			Source:       newSource(*chunks, *scale, *synthetic),
			Metrics:      reg,
			Tracer:       tracer,
			SendHorizon:  *sendHorizon,
			WriteTimeout: *writeTimeout,
			WireTrace:    *traceWire,

			Controls: controls,
		}
		if len(plan.Faults) > 0 {
			sOpts.Dial = faults.NewInjector(plan).Dialer(nil)
		}
		err = pipeline.RunSender(sOpts)
	case runtime.Receiver:
		opts := pipeline.ReceiverOptions{
			Cfg:          cfg,
			Topo:         topo,
			Bind:         *bind,
			Expect:       *chunks,
			Metrics:      reg,
			Tracer:       tracer,
			FailHard:     *failHard,
			MaxBadChunks: *maxBadChunks,
			ExactlyOnce:  *exactlyOnce,

			Shards:       *shardsFlag,
			MaxStreams:   *maxStreams,
			StreamCredit: *streamCredit,

			Controls: controls,
		}
		if *serve {
			// Serve until SIGINT/SIGTERM.
			stop := make(chan struct{})
			sigs := make(chan os.Signal, 1)
			signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
			go func() {
				<-sigs
				close(stop)
			}()
			opts.Expect = 0
			opts.Stop = stop
		}
		var delivered atomic.Int64
		opts.Sink = func(pipeline.Chunk) error {
			delivered.Add(1)
			return nil
		}
		err = pipeline.RunReceiver(opts)
		if q := reg.CounterValue(pipeline.CtrQuarantined); err == nil && q > 0 && delivered.Load() == 0 {
			nothingDelivered = fmt.Errorf("receiver delivered 0 chunks and quarantined %d", q)
		}
	default:
		err = fmt.Errorf("config has unknown role %q", cfg.Role)
	}
	if err != nil {
		fatal(err)
	}
	if obsEng != nil {
		obsEng.Stop()
	}
	if agg != nil {
		agg.Stop()
	}
	if *clusterReport != "" {
		rep := agg.Report()
		if err := obs.WriteReportFile(*clusterReport, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("cluster report written to %s (dominant: %s)\n", *clusterReport, rep.Dominant)
	}
	if *reportPath != "" {
		rep := obsEng.Report()
		var report interface{ Markdown() string } = rep
		if ctrl != nil {
			report = ctrl.Report(rep)
		}
		if err := obs.WriteReportFile(*reportPath, report); err != nil {
			fatal(err)
		}
		fmt.Printf("self-diagnosis report written to %s (dominant regime: %s)\n", *reportPath, rep.Dominant)
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace (%d events, %d dropped) written to %s\n", tracer.Len(), tracer.Dropped(), *tracePath)
	}
	if ctrl != nil {
		actions := ctrl.Actions()
		fmt.Printf("adaptive placement: %d actions\n", len(actions))
		if len(actions) > 0 {
			fmt.Print(adapt.FormatActions(actions))
		}
	}
	fmt.Printf("%s %q done:\n%s", cfg.Role, cfg.Node, reg.String())
	if nothingDelivered != nil {
		fatal(nothingDelivered)
	}
}

// newSource yields n chunks: synthetic patterned data, or parallel-beam
// projections of a sphere phantom at detector/scale resolution.
func newSource(n, scale int, synthetic bool) func() []byte {
	var mu sync.Mutex
	i := 0
	if synthetic {
		return func() []byte {
			mu.Lock()
			defer mu.Unlock()
			if i >= n {
				return nil
			}
			i++
			chunk := make([]byte, tomo.ChunkBytes/(scale*scale))
			for j := range chunk {
				chunk[j] = byte(j / 64) // compressible runs
			}
			return chunk
		}
	}
	cfg := tomo.DefaultProjectionConfig()
	if scale > 1 {
		cfg.Width /= scale
		cfg.Height /= scale
	}
	gen := tomo.NewGenerator(tomo.RandomPhantom(1, 60), cfg, 360)
	return func() []byte {
		mu.Lock()
		defer mu.Unlock()
		if i >= n {
			return nil
		}
		i++
		return gen.Next()
	}
}

// addFleetPeers parses the -fleet DSL ("node=role=addr", comma
// separated) into HTTP scrape sources on the aggregator.
func addFleetPeers(agg *fleet.Aggregator, spec string) error {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, "=", 3)
		if len(parts) != 3 {
			return fmt.Errorf("-fleet entry %q: want node=role=addr", entry)
		}
		var role fleet.Role
		switch parts[1] {
		case "sender":
			role = fleet.RoleSender
		case "relay":
			role = fleet.RoleRelay
		case "gateway":
			role = fleet.RoleGateway
		default:
			return fmt.Errorf("-fleet entry %q: role must be sender, relay or gateway", entry)
		}
		agg.AddSource(fleet.HTTPSource(parts[0], role, parts[2]))
	}
	return nil
}

// adaptPolicy builds the runtime controller tuning: the defaults
// (hysteresis 3, 2s cooldown, step 2), domains from the discovered
// topology, and per-stage growth capped at twice the configured count —
// the config is the operator's sizing; adaptation refines it but never
// runs away from it.
func adaptPolicy(cfg runtime.NodeConfig, topo numa.HostTopology, nicDomain int) adapt.Policy {
	pol := adapt.DefaultPolicy()
	pol.NICDomain = nicDomain
	for _, n := range topo.Nodes {
		pol.Domains = append(pol.Domains, n.ID)
	}
	pol.MaxWorkers = map[string]int{}
	for _, g := range cfg.Groups {
		pol.MaxWorkers[string(g.Type)] += 2 * g.Count
	}
	return pol
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "numastream: %v\n", err)
	os.Exit(1)
}
