package experiments

import (
	"fmt"
	"strings"

	"numastream/internal/adapt"
	"numastream/internal/hw"
	"numastream/internal/obs"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// The adaptive-placement convergence drill (ROADMAP: "validate by
// starting from a deliberately bad config and converging to within
// ~10% of the paper's tuned one on the simulator"). Three virtual-time
// cells on the updraft→lynxdtn path:
//
//   bad      1 compress worker, everything pinned to socket 0, no
//            controller — the probe pass (learns the sampling cadence)
//            and the baseline the drill must escape.
//   adapted  the same bad config with the controller subscribed to the
//            self-diagnosis windows: it must grow compress, then fix
//            whatever binds next, until throughput converges.
//   tuned    the known-good config with the controller subscribed: the
//            do-nothing-band regression — every window must decide
//            nothing and the action log stay empty.
//
// Convergence is judged on tail throughput (the last TailFrac of
// chunks), because the adapted run's early windows are the bad config
// by construction.

// AdaptChunks is the per-cell chunk count; AdaptTailFrac the fraction
// of chunks whose delivery rate defines converged throughput.
const (
	AdaptChunks   = 400
	AdaptTailFrac = 0.25
)

// AdaptSimResult is the drill record.
type AdaptSimResult struct {
	Seed         int64          `json:"seed"`
	BadGbps      float64        `json:"bad_gbps"`     // tail Gbps, bad config, no controller
	AdaptedGbps  float64        `json:"adapted_gbps"` // tail Gbps, bad config + controller
	TunedGbps    float64        `json:"tuned_gbps"`   // tail Gbps, tuned config + controller
	SampleEvery  float64        `json:"sample_every"` // window cadence (virtual seconds)
	Actions      []adapt.Action `json:"actions"`      // the adapted cell's action log
	TunedActions []adapt.Action `json:"tuned_actions,omitempty"`
	Regimes      []obs.Regime   `json:"regimes"` // the adapted cell's regime story
	Windows      int            `json:"windows"` // windows the adapted cell resolved
}

// Converged returns adapted/tuned.
func (r AdaptSimResult) Converged() float64 {
	if r.TunedGbps <= 0 {
		return 0
	}
	return r.AdaptedGbps / r.TunedGbps
}

// Check asserts the drill contract.
func (r AdaptSimResult) Check() error {
	if len(r.TunedActions) != 0 {
		return fmt.Errorf("tuned config produced %d actions, want 0 (do-nothing band broken): %s",
			len(r.TunedActions), adapt.FormatActions(r.TunedActions))
	}
	if len(r.Actions) == 0 {
		return fmt.Errorf("adapted run produced no actions from the bad config")
	}
	if first := r.Actions[0]; first.Op != adapt.OpGrow || first.Stage != "compress" {
		return fmt.Errorf("first action is %s %s, want grow compress", first.Op, first.Stage)
	}
	if r.BadGbps >= 0.7*r.TunedGbps {
		return fmt.Errorf("bad config reaches %.1f of tuned %.1f Gbps — the drill's starting point is not bad enough",
			r.BadGbps, r.TunedGbps)
	}
	if r.AdaptedGbps < 0.9*r.TunedGbps {
		return fmt.Errorf("adapted converged to %.1f Gbps, tuned %.1f: %.0f%% — want within 10%%",
			r.AdaptedGbps, r.TunedGbps, 100*r.Converged())
	}
	return nil
}

// adaptBadSender/Receiver is the deliberately bad config: one compress
// worker, everything on socket 0.
func adaptBadSender() runtime.NodeConfig {
	return sender("updraft1", group(runtime.Compress, 1, runtime.PinTo(0)), group(runtime.Send, 4, runtime.PinTo(0)))
}

func adaptBadReceiver() runtime.NodeConfig {
	return receiver("lynxdtn", group(runtime.Receive, 4, runtime.PinTo(0)), group(runtime.Decompress, 2, runtime.PinTo(0)))
}

// adaptTunedSender with drillReceiver is the known-good config: the
// drill configuration with send pinned to the NIC domain, so wire-bound
// windows have nothing to migrate.
func adaptTunedSender() runtime.NodeConfig {
	return sender("updraft1", group(runtime.Compress, 8, runtime.SplitAll()), group(runtime.Send, 4, runtime.PinTo(1)))
}

// adaptPolicy is the drill's controller tuning. Hysteresis 2 and a
// cooldown of two windows keep the drill short while still proving
// both gates fire (the unit tests pin their exact behavior); the caps
// equal the tuned worker counts, so the controller can reach — but
// never overshoot — the paper's configuration.
func adaptPolicy(every float64) adapt.Policy {
	return adapt.Policy{
		Hysteresis: 2,
		Cooldown:   2 * every,
		MaxStep:    2,
		ActFloor:   0.35,
		MaxWorkers: map[string]int{"compress": 8, "send": 4, "receive": 4, "decompress": 8},
		Domains:    []int{0, 1},
		NICDomain:  1, // DataNIC lives on socket 1 on both machines
	}
}

// simActuator adapts a runtime.Stream's elastic stage controls to the
// controller's Actuator interface.
type simActuator struct{ st *runtime.Stream }

var simStageTask = map[string]runtime.TaskType{
	"compress":   runtime.Compress,
	"send":       runtime.Send,
	"receive":    runtime.Receive,
	"decompress": runtime.Decompress,
}

func (a simActuator) Workers(stage string) int {
	return a.st.StageWorkers(simStageTask[stage])
}

func (a simActuator) DomainWorkers(stage string) map[int]int {
	return a.st.StageDomains(simStageTask[stage])
}

func (a simActuator) Grow(stage string, n, domain int) int {
	return a.st.GrowStage(simStageTask[stage], n, domain)
}

func (a simActuator) Shrink(stage string, n, domain int) int {
	return a.st.ShrinkStage(simStageTask[stage], n, domain)
}

// adaptCellResult is one cell's outcome.
type adaptCellResult struct {
	tailGbps float64
	finish   float64
	actions  []adapt.Action
	regimes  []obs.Regime
	windows  int
}

// runAdaptCell runs one cell: the given configs on the Fig 12 pair,
// sampled every `every` virtual seconds into an obs engine when every > 0,
// with the adaptive controller subscribed when withController is set.
func runAdaptCell(seed int64, snd, rcv runtime.NodeConfig, every float64, withController bool) (adaptCellResult, error) {
	var res adaptCellResult
	// Tail-throughput accounting: delivery times for the last
	// AdaptTailFrac of chunks.
	tailN := int(float64(AdaptChunks) * AdaptTailFrac)
	if tailN < 2 {
		tailN = 2
	}
	var times []float64
	var rawBytes, items int64
	var obsEng *obs.Engine
	var ctl *adapt.Controller

	cell := pairCell{
		seed: seed,
		spec: runtime.StreamSpec{Name: "adapt", Chunks: AdaptChunks, ChunkBytes: ChunkBytes, Ratio: hw.CompressionRatio},
		snd:  snd,
		rcv:  rcv,
		onDeliver: func(t, raw, wire float64) {
			times = append(times, t)
			rawBytes += int64(raw)
			items++
		},
	}
	if every > 0 {
		cell.observe = func(eng *sim.Engine, st *runtime.Stream) {
			opts := obs.Options{Node: "adapt-sim", Workers: stageWorkers(snd, rcv)}
			if withController {
				ctl = adapt.New(adaptPolicy(every), simActuator{st})
				opts.OnWindow = ctl.OnWindow
			}
			obsEng = obs.NewEngine(nil, opts)
			if ctl != nil {
				ctl.BindEngine(obsEng)
			}
			sampleEvery(eng, every, 1, delivered(st), func(t float64) {
				obsEng.Observe(simSnapshot(t, st, rawBytes, items))
			})
		}
	}
	st, err := cell.run()
	if err != nil {
		return res, err
	}

	if len(times) < tailN {
		return res, fmt.Errorf("experiments: adapt cell delivered %d chunks, need %d for the tail", len(times), tailN)
	}
	t0, t1 := times[len(times)-tailN], times[len(times)-1]
	if t1 <= t0 {
		return res, fmt.Errorf("experiments: adapt cell tail has zero width")
	}
	// tailN-1 inter-delivery intervals of raw ChunkBytes each.
	res.tailGbps = float64(tailN-1) * ChunkBytes * 8 / (t1 - t0) / 1e9
	res.finish = st.FinishTime
	if ctl != nil {
		res.actions = ctl.Actions()
	}
	if obsEng != nil {
		res.regimes = obsEng.Regimes()
		res.windows = len(obsEng.Windows())
	}
	return res, nil
}

// AdaptSim runs the convergence drill. Virtual time end to end: the
// same seed renders a byte-identical result, action log included.
func AdaptSim(seed int64) (AdaptSimResult, error) {
	var r AdaptSimResult
	r.Seed = seed

	// Probe pass: the bad config uncontrolled learns both the baseline
	// tail throughput and the sampling cadence for the other cells.
	bad, err := runAdaptCell(seed, adaptBadSender(), adaptBadReceiver(), 0, false)
	if err != nil {
		return r, fmt.Errorf("bad cell: %w", err)
	}
	r.BadGbps = bad.tailGbps
	r.SampleEvery = bad.finish / 96

	adapted, err := runAdaptCell(seed, adaptBadSender(), adaptBadReceiver(), r.SampleEvery, true)
	if err != nil {
		return r, fmt.Errorf("adapted cell: %w", err)
	}
	r.AdaptedGbps = adapted.tailGbps
	r.Actions = adapted.actions
	r.Regimes = adapted.regimes
	r.Windows = adapted.windows

	tuned, err := runAdaptCell(seed, adaptTunedSender(), drillReceiver(), r.SampleEvery, true)
	if err != nil {
		return r, fmt.Errorf("tuned cell: %w", err)
	}
	r.TunedGbps = tuned.tailGbps
	r.TunedActions = tuned.actions
	return r, nil
}

// FormatAdaptSim renders the drill story.
func FormatAdaptSim(r AdaptSimResult) string {
	var b strings.Builder
	b.WriteString("Adaptive placement convergence drill (virtual time, updraft -> lynxdtn, 100 Gbps)\n")
	fmt.Fprintf(&b, "  bad config (1 compress, all on socket 0):  %7.1f Gbps tail\n", r.BadGbps)
	fmt.Fprintf(&b, "  bad config + adaptive controller:          %7.1f Gbps tail\n", r.AdaptedGbps)
	fmt.Fprintf(&b, "  tuned config (controller silent):          %7.1f Gbps tail\n", r.TunedGbps)
	fmt.Fprintf(&b, "  converged to %.0f%% of tuned over %d windows (sample every %.3fs)\n",
		100*r.Converged(), r.Windows, r.SampleEvery)
	fmt.Fprintf(&b, "\n  actions (%d):\n", len(r.Actions))
	for _, a := range r.Actions {
		fmt.Fprintf(&b, "    %s\n", a.String())
	}
	if len(r.Regimes) > 0 {
		b.WriteString("\n  regime story:\n")
		for _, reg := range r.Regimes {
			fmt.Fprintf(&b, "    t=%8.3fs  %s -> %s\n", reg.T, reg.From, reg.To)
		}
	}
	return b.String()
}
