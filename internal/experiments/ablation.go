package experiments

import (
	"numastream/internal/hw"
	"numastream/internal/runtime"
)

// Ablations: each figure's headline effect traced to the model mechanism
// that produces it (DESIGN.md §6). Every ablation runs the relevant
// experiment twice — once on the calibrated machine and once with one
// mechanism disabled — and returns the effect size under both, so the
// benches (and EXPERIMENTS.md) can show the effect vanishing.

// AblationResult is one mechanism's contribution to one effect.
type AblationResult struct {
	Mechanism string  // which knob was disabled
	Effect    string  // what is being measured
	With      float64 // effect size on the calibrated machine
	Without   float64 // effect size with the mechanism disabled
}

// mutator edits a machine config before the run.
type mutator func(*hw.Config)

// ablationNetworkGap measures Fig 11's local-vs-remote receive gap (the
// B-over-A boost at 2 thread pairs) on machines built with mutate.
func ablationNetworkGap(mutate mutator) (float64, error) {
	run := func(recvSocket int) (float64, error) {
		st, err := pairCell{
			seed:   11,
			mutate: mutate,
			spec:   runtime.StreamSpec{Name: "abl", Chunks: 200, ChunkBytes: Fig11ChunkBytes},
			snd:    sender("s", group(runtime.Send, 2, runtime.SplitAll())),
			rcv:    receiver("r", group(runtime.Receive, 2, runtime.PinTo(recvSocket))),
		}.run()
		if err != nil {
			return 0, err
		}
		return st.EndToEndBps(), nil
	}
	local, err := run(1)
	if err != nil {
		return 0, err
	}
	remote, err := run(0)
	if err != nil {
		return 0, err
	}
	return (local - remote) / remote, nil
}

// AblateRemotePenalty shows Fig 11's ~15% NIC-local receive boost is
// produced by the remote-access stall: with RemotePenalty zeroed the
// boost collapses.
func AblateRemotePenalty() (AblationResult, error) {
	with, err := ablationNetworkGap(nil)
	if err != nil {
		return AblationResult{}, err
	}
	without, err := ablationNetworkGap(func(c *hw.Config) { c.RemotePenalty = 0 })
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Mechanism: "remote-access stall (RemotePenalty)",
		Effect:    "Fig 11 local-over-remote receive boost",
		With:      with,
		Without:   without,
	}, nil
}

// ablationDecompressGap measures Fig 9's split-over-single-socket gap at
// 16 decompression threads on a machine built with mutate.
func ablationDecompressGap(mutate mutator) float64 {
	run := func(exec runtime.Placement) float64 {
		const chunks = 512
		_, finish := codecRun(mutate, 21, opDecompress, 16, exec, 0, chunks)
		return float64(chunks) * ChunkBytes / finish
	}
	single := run(runtime.PinTo(0))
	split := run(runtime.SplitAll())
	return (split - single) / single
}

// AblateUncoreContention shows Fig 9's E/F win at 16 threads is produced
// by the per-socket uncore budget: with the budget effectively removed
// the gap collapses.
func AblateUncoreContention() AblationResult {
	return AblationResult{
		Mechanism: "per-socket LLC/uncore budget (SocketUncoreBW)",
		Effect:    "Fig 9 split-over-single-socket decompression gap at 16 threads",
		With:      ablationDecompressGap(nil),
		Without:   ablationDecompressGap(func(c *hw.Config) { c.UncoreBW = 1e15 }),
	}
}

// ablationCompressDecline measures Fig 8's throughput decline from 16 to
// 64 threads on one socket (configuration A) on a machine built with
// mutate.
func ablationCompressDecline(mutate mutator) float64 {
	run := func(threads int) float64 {
		const chunks = 512
		_, finish := codecRun(mutate, 31, opCompress, threads, runtime.PinTo(0), 0, chunks)
		return float64(chunks) * ChunkBytes / finish
	}
	at16 := run(16)
	at64 := run(64)
	return (at16 - at64) / at16
}

// AblateContextSwitchTax shows Fig 8's decline beyond one thread per
// core is produced by the context-switch tax.
func AblateContextSwitchTax() AblationResult {
	return AblationResult{
		Mechanism: "co-location context-switch tax (CtxSwitchTax)",
		Effect:    "Fig 8 throughput decline from 16 to 64 threads on one socket",
		With:      ablationCompressDecline(nil),
		Without:   ablationCompressDecline(func(c *hw.Config) { c.CtxSwitchTax = 0 }),
	}
}

// AblateMigrationTax shows Fig 14's runtime-over-OS factor depends on
// the OS-scheduling inefficiency model: with the migration tax zeroed
// the factor shrinks toward pure placement effects.
func AblateMigrationTax() (AblationResult, error) {
	withRT, withOS, err := fig14Totals(nil)
	if err != nil {
		return AblationResult{}, err
	}
	woRT, woOS, err := fig14Totals(func(c *hw.Config) { c.MigrationTax = 0 })
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Mechanism: "OS thread-migration tax (MigrationTax)",
		Effect:    "Fig 14 runtime-over-OS end-to-end factor",
		With:      withRT / withOS,
		Without:   woRT / woOS,
	}, nil
}

// fig14Totals reruns the Figure 14 deployment with mutated machine
// configs and returns cumulative end-to-end Gbps for both modes.
func fig14Totals(mutate mutator) (rtTotal, osTotal float64, err error) {
	rt, err := fig14Run(ModeRuntime, 120, nil, mutate)
	if err != nil {
		return 0, 0, err
	}
	os, err := fig14Run(ModeOS, 120, nil, mutate)
	if err != nil {
		return 0, 0, err
	}
	return rt.TotalE2E, os.TotalE2E, nil
}
