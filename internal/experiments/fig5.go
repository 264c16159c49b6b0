package experiments

import (
	"fmt"

	"numastream/internal/hw"
	"numastream/internal/netsim"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// Fig 5 (§3.1): receiver-side throughput as the number of streaming
// processes varies across NUMA placements. Four sender machines emulate
// instrument detectors generating fixed-rate streams over a 200 Gbps
// path into the lynxdtn gateway, whose data NIC hangs off NUMA 1. Each
// process is one stream with one sending and one receiving thread.

// Fig5Placements are the three placement scenarios of the figure.
var Fig5Placements = []string{"N0", "N1", "N0,1"}

// Fig5ProcessCounts is the paper's process sweep (2 up to 128).
var Fig5ProcessCounts = []int{2, 4, 8, 16, 32, 64, 128}

// Fig5Result is one bar of Figure 5, with the per-core metrics behind
// Figures 6 and 7.
type Fig5Result struct {
	Processes int
	Placement string
	Gbps      float64 // aggregate receiver-side throughput
	CoreStats []hw.CoreStat
	Horizon   float64
}

// gatewayBed is the §3.1 testbed: four senders, one shared backbone, one
// gateway.
type gatewayBed struct {
	eng     *sim.Engine
	rcv     *runtime.SimNode
	senders []*runtime.SimNode
	paths   []*netsim.Path
}

func newGatewayBed(linkGbps float64) *gatewayBed {
	eng := sim.NewEngine()
	rcv := runtime.NewSimNode(hw.NewLynxdtn(eng), 100)
	rcv.Rates.RecvProc = hw.StreamProcRate
	link := netsim.NewLink(eng, "aps-alcf", hw.BytesPerSec(linkGbps), 0.45e-3)
	bed := &gatewayBed{eng: eng, rcv: rcv}
	for i, mk := range []func() *hw.Machine{
		func() *hw.Machine { return hw.NewUpdraft(eng, "updraft1") },
		func() *hw.Machine { return hw.NewUpdraft(eng, "updraft2") },
		func() *hw.Machine { return hw.NewPolaris(eng, "polaris1") },
		func() *hw.Machine { return hw.NewPolaris(eng, "polaris2") },
	} {
		snd := runtime.NewSimNode(mk(), int64(200+i))
		bed.senders = append(bed.senders, snd)
		bed.paths = append(bed.paths,
			netsim.NewPath(eng, snd.M, hw.DataNIC(snd.M), link, rcv.M, hw.DataNIC(rcv.M)))
	}
	return bed
}

// recvPlacement maps a Fig 5 scenario and process index to the receive
// thread's placement ("N0,1" alternates processes between the domains).
func recvPlacement(scenario string, proc int) (runtime.Placement, error) {
	switch scenario {
	case "N0":
		return runtime.PinTo(0), nil
	case "N1":
		return runtime.PinTo(1), nil
	case "N0,1":
		return runtime.PinTo(proc % 2), nil
	default:
		return runtime.Placement{}, fmt.Errorf("experiments: unknown Fig 5 placement %q", scenario)
	}
}

// runFig5Cell runs one (processes, placement) cell and returns aggregate
// throughput plus receiver core metrics. recvOverride, when non-nil,
// fully determines each process's receive-thread placement (used by the
// Fig 6/7 core-subset configurations).
func runFig5Cell(processes int, scenario string, recvOverride func(proc int) runtime.Placement, chunksPerStream int) (Fig5Result, error) {
	bed := newGatewayBed(200)
	var streams []*runtime.Stream
	for p := 0; p < processes; p++ {
		place, err := recvPlacement(scenario, p)
		if err != nil {
			return Fig5Result{}, err
		}
		if recvOverride != nil {
			place = recvOverride(p)
		}
		snd := bed.senders[p%len(bed.senders)]
		streams = append(streams, &runtime.Stream{
			Spec: runtime.StreamSpec{
				Name:       fmt.Sprintf("p%d", p),
				Chunks:     chunksPerStream,
				ChunkBytes: ChunkBytes,
				GenRate:    hw.StreamGenRate,
			},
			Sender:      snd,
			SenderCfg:   sender(snd.M.Cfg.Name, group(runtime.Send, 1, runtime.SplitAll())),
			Receiver:    bed.rcv,
			ReceiverCfg: receiver("lynxdtn", group(runtime.Receive, 1, place)),
			Path:        bed.paths[p%len(bed.paths)],
		})
	}
	if err := (&runtime.Runner{Eng: bed.eng, Streams: streams}).Run(); err != nil {
		return Fig5Result{}, err
	}
	horizon := lastFinish(streams)
	return Fig5Result{
		Processes: processes,
		Placement: scenario,
		Gbps:      hw.Gbps(sumE2E(streams)),
		CoreStats: bed.rcv.M.CoreStats(horizon),
		Horizon:   horizon,
	}, nil
}

// Fig5Streaming reproduces Figure 5: aggregate throughput per process
// count and placement scenario.
func Fig5Streaming(processCounts []int) ([]Fig5Result, error) {
	if processCounts == nil {
		processCounts = Fig5ProcessCounts
	}
	var out []Fig5Result
	for _, p := range processCounts {
		for _, scenario := range Fig5Placements {
			r, err := runFig5Cell(p, scenario, nil, 30)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Fig6Config is one column of Figures 6 and 7: P streaming processes
// restricted to C cores of one NUMA domain (label style "16P_2c_N0").
type Fig6Config struct {
	Label     string
	Processes int
	Cores     int
	Domain    int // -1 = both domains
}

// Fig6Configs mirrors the configurations shown in Figures 6 and 7.
func Fig6Configs() []Fig6Config {
	return []Fig6Config{
		{Label: "8P_2c_N0", Processes: 8, Cores: 2, Domain: 0},
		{Label: "8P_2c_N1", Processes: 8, Cores: 2, Domain: 1},
		{Label: "16P_2c_N0", Processes: 16, Cores: 2, Domain: 0},
		{Label: "16P_2c_N1", Processes: 16, Cores: 2, Domain: 1},
		{Label: "16P_8c_N0", Processes: 16, Cores: 8, Domain: 0},
		{Label: "16P_8c_N1", Processes: 16, Cores: 8, Domain: 1},
		{Label: "32P_16c_N0", Processes: 32, Cores: 16, Domain: 0},
		{Label: "32P_16c_N1", Processes: 32, Cores: 16, Domain: 1},
		{Label: "32P_32c_N0,1", Processes: 32, Cores: 32, Domain: -1},
	}
}

// Fig6Result carries per-core utilization (Fig 6) and remote-access
// bytes (Fig 7) for one configuration.
type Fig6Result struct {
	Config    Fig6Config
	Gbps      float64
	CoreStats []hw.CoreStat
	Horizon   float64
}

// Fig6CoreUsage reproduces Figures 6 and 7: it runs each configuration
// and returns the gateway's per-core busy fractions and remote traffic.
func Fig6CoreUsage(configs []Fig6Config) ([]Fig6Result, error) {
	if configs == nil {
		configs = Fig6Configs()
	}
	var out []Fig6Result
	for _, cfg := range configs {
		coreIDs, err := gatewayCoreSubset(cfg)
		if err != nil {
			return nil, err
		}
		override := func(proc int) runtime.Placement {
			// Process proc is pinned to one specific core of the
			// subset, round-robin, as the paper's per-process
			// core restriction does.
			return runtime.PinToCores(coreIDs[proc%len(coreIDs)])
		}
		r, err := runFig5Cell(cfg.Processes, "N1", override, 30)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Result{Config: cfg, Gbps: r.Gbps, CoreStats: r.CoreStats, Horizon: r.Horizon})
	}
	return out, nil
}

// gatewayCoreSubset returns the first cfg.Cores core ids of the chosen
// domain on the lynxdtn layout (16 cores per socket; domain -1 draws
// evenly from both).
func gatewayCoreSubset(cfg Fig6Config) ([]int, error) {
	const perSocket = 16
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("experiments: config %q has no cores", cfg.Label)
	}
	var ids []int
	switch cfg.Domain {
	case 0, 1:
		if cfg.Cores > perSocket {
			return nil, fmt.Errorf("experiments: config %q wants %d cores from one domain", cfg.Label, cfg.Cores)
		}
		for c := 0; c < cfg.Cores; c++ {
			ids = append(ids, cfg.Domain*perSocket+c)
		}
	case -1:
		if cfg.Cores > 2*perSocket {
			return nil, fmt.Errorf("experiments: config %q wants %d cores", cfg.Label, cfg.Cores)
		}
		for c := 0; c < cfg.Cores; c++ {
			ids = append(ids, (c%2)*perSocket+c/2)
		}
	default:
		return nil, fmt.Errorf("experiments: config %q has invalid domain %d", cfg.Label, cfg.Domain)
	}
	return ids, nil
}
