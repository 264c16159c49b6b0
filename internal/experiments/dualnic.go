package experiments

import (
	"fmt"

	"numastream/internal/hw"
	"numastream/internal/netsim"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// Dual-NIC study (extension): lynxdtn carries two 200 Gbps NICs, one
// per socket; the paper notes the "combined bandwidth of 400 Gb/s for
// both NICs" but only exercises the NUMA-1 NIC. This study asks what
// the runtime's placement rules yield when both are used: each NIC's
// streams get receive threads pinned to *that NIC's* domain, versus the
// naive single-NIC deployment and a mismatched placement (all receive
// threads on one socket regardless of NIC).

// DualNICMode selects the deployment.
type DualNICMode string

// The deployments under study.
const (
	// SingleNIC is the paper's deployment: all streams through the
	// NUMA-1 NIC.
	SingleNIC DualNICMode = "single-nic"
	// DualNICAligned splits streams across both NICs, each stream's
	// receive threads pinned to its NIC's domain.
	DualNICAligned DualNICMode = "dual-aligned"
	// DualNICMisaligned splits streams across both NICs but pins all
	// receive threads to NUMA 1 (half of them remote).
	DualNICMisaligned DualNICMode = "dual-misaligned"
)

// DualNICResult is one deployment's aggregate throughput.
type DualNICResult struct {
	Mode DualNICMode
	Gbps float64
}

// DualNICStudy runs 8 raw streams (4 per NIC when dual) at full blast
// and reports aggregate receive throughput for each deployment.
func DualNICStudy() ([]DualNICResult, error) {
	var out []DualNICResult
	for _, mode := range []DualNICMode{SingleNIC, DualNICAligned, DualNICMisaligned} {
		gbps, err := runDualNICCell(mode)
		if err != nil {
			return nil, err
		}
		out = append(out, DualNICResult{Mode: mode, Gbps: gbps})
	}
	return out, nil
}

func runDualNICCell(mode DualNICMode) (float64, error) {
	eng := sim.NewEngine()
	rcv := runtime.NewSimNode(hw.NewLynxdtn(eng), 81)
	nic0, ok0 := rcv.M.NIC("lustre0")
	nic1, ok1 := rcv.M.NIC("data1")
	if !ok0 || !ok1 {
		return 0, fmt.Errorf("experiments: lynxdtn model lacks its two NICs")
	}

	const streams = 8
	var sts []*runtime.Stream
	for i := 0; i < streams; i++ {
		snd := runtime.NewSimNode(hw.NewUpdraft(eng, fmt.Sprintf("src%d", i)), int64(91+i))
		// Each sender gets its own 100 Gbps feed; the shared backbone
		// carries 400 Gbps so the gateway NICs are the constraint.
		link := netsim.NewLink(eng, fmt.Sprintf("feed%d", i), hw.BytesPerSec(100), 0.45e-3)

		nic := nic1
		if mode != SingleNIC && i%2 == 0 {
			nic = nic0
		}
		recvSocket := 1
		switch mode {
		case DualNICAligned:
			recvSocket = nic.Socket
		case DualNICMisaligned, SingleNIC:
			recvSocket = 1
		}

		sts = append(sts, &runtime.Stream{
			Spec: runtime.StreamSpec{
				Name: fmt.Sprintf("s%d", i), Chunks: 100, ChunkBytes: Fig11ChunkBytes,
			},
			Sender:      snd,
			SenderCfg:   sender("src", group(runtime.Send, 2, runtime.SplitAll())),
			Receiver:    rcv,
			ReceiverCfg: receiver("lynxdtn", group(runtime.Receive, 2, runtime.PinTo(recvSocket))),
			Path:        netsim.NewPath(eng, snd.M, hw.DataNIC(snd.M), link, rcv.M, nic),
		})
	}
	if err := (&runtime.Runner{Eng: eng, Streams: sts}).Run(); err != nil {
		return 0, err
	}
	return hw.Gbps(sumE2E(sts)), nil
}

// FormatDualNIC renders the study.
func FormatDualNIC(results []DualNICResult) string {
	out := "Dual-NIC study (extension): aggregate receive throughput, 8 raw streams\n"
	for _, r := range results {
		out += fmt.Sprintf("%16s: %7.1f Gbps\n", r.Mode, r.Gbps)
	}
	return out
}
