package experiments

import (
	"fmt"

	"numastream/internal/hw"
	"numastream/internal/netsim"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// RSS steering study (extension of §2.2's background): the paper
// explains that RSS/RPS map flows to softIRQ cores and that packet
// processing is fastest when those cores share the NIC's NUMA domain
// with the consuming threads. This experiment makes that explicit:
// identical multi-stream deployments, differing only in the flow→core
// steering table, with the softIRQ cost charged per §2.2's mechanism.

// RSSMode selects the steering table.
type RSSMode string

// The steering policies under study.
const (
	// RSSLocal maps every queue to the NIC domain's cores and the
	// receive threads there too — the runtime's coordinated setup.
	RSSLocal RSSMode = "local"
	// RSSScattered stripes queues across all cores while receive
	// threads stay on the NIC domain — uncoordinated IRQ affinity.
	RSSScattered RSSMode = "scattered"
	// RSSNone disables explicit softIRQ modelling (the calibrated
	// default, softIRQ folded into the receive rate).
	RSSNone RSSMode = "none"
)

// RSSResult is one steering policy's aggregate throughput.
type RSSResult struct {
	Mode    RSSMode
	Streams int
	Gbps    float64
}

// RSSSoftIRQRate is the modelled softIRQ processing capacity per core:
// several times the application receive rate, since the handler only
// moves descriptors and triggers the protocol path.
const RSSSoftIRQRate = 4 * hw.RecvProcRate

// RSSStudy runs `streams` concurrent streams under each steering policy
// and reports aggregate throughput.
func RSSStudy(streams int) ([]RSSResult, error) {
	if streams < 1 {
		return nil, fmt.Errorf("experiments: RSS study needs at least one stream")
	}
	var out []RSSResult
	for _, mode := range []RSSMode{RSSNone, RSSLocal, RSSScattered} {
		gbps, err := runRSSCell(mode, streams)
		if err != nil {
			return nil, err
		}
		out = append(out, RSSResult{Mode: mode, Streams: streams, Gbps: gbps})
	}
	return out, nil
}

func runRSSCell(mode RSSMode, streams int) (float64, error) {
	eng := sim.NewEngine()
	rcv := runtime.NewSimNode(hw.NewLynxdtn(eng), 61)
	link := netsim.NewLink(eng, "aps", hw.BytesPerSec(200), 0.45e-3)

	var rss *netsim.RSS
	var err error
	switch mode {
	case RSSLocal:
		rss, err = netsim.LocalRSS(eng, rcv.M, hw.DataNIC(rcv.M), RSSSoftIRQRate)
	case RSSScattered:
		rss, err = netsim.ScatteredRSS(eng, rcv.M, RSSSoftIRQRate)
	case RSSNone:
	default:
		return 0, fmt.Errorf("experiments: unknown RSS mode %q", mode)
	}
	if err != nil {
		return 0, err
	}

	var sts []*runtime.Stream
	for i := 0; i < streams; i++ {
		snd := runtime.NewSimNode(hw.NewUpdraft(eng, fmt.Sprintf("updraft%d", i+1)), int64(71+i))
		path := netsim.NewPath(eng, snd.M, hw.DataNIC(snd.M), link, rcv.M, hw.DataNIC(rcv.M))
		if rss != nil {
			path.SetRSS(rss, i)
		}
		sts = append(sts, &runtime.Stream{
			Spec: runtime.StreamSpec{
				Name: fmt.Sprintf("s%d", i), Chunks: 120, ChunkBytes: Fig11ChunkBytes,
			},
			Sender:      snd,
			SenderCfg:   sender("snd", group(runtime.Send, 4, runtime.SplitAll())),
			Receiver:    rcv,
			ReceiverCfg: receiver("lynxdtn", group(runtime.Receive, 4, runtime.PinTo(1))),
			Path:        path,
		})
	}
	if err := (&runtime.Runner{Eng: eng, Streams: sts}).Run(); err != nil {
		return 0, err
	}
	return hw.Gbps(sumE2E(sts)), nil
}

// FormatRSS renders the study.
func FormatRSS(results []RSSResult) string {
	out := "RSS steering study (extension of §2.2): aggregate receive throughput\n"
	for _, r := range results {
		out += fmt.Sprintf("%12s steering, %d streams: %7.1f Gbps\n", r.Mode, r.Streams, r.Gbps)
	}
	return out
}
