package experiments

import (
	"numastream/internal/hw"
	"numastream/internal/trace"
)

// Fig 14 (§4.2): four concurrent streams from updraft1, updraft2,
// polaris1 and polaris2 into the lynxdtn gateway over a 200 Gbps path
// (the Figure 13 deployment). Every sender runs 32 compression threads
// and 4 sending threads; each stream gets 4 receiving and 4
// decompression threads at the gateway. The comparison is the paper's
// headline: the runtime's placement (receive threads on the NIC's
// NUMA 1, decompression on NUMA 0) versus leaving thread placement to
// the OS.

// Fig14Mode selects the placement policy under test.
type Fig14Mode string

// The two bars of Figure 14.
const (
	ModeRuntime Fig14Mode = "runtime"
	ModeOS      Fig14Mode = "os"
)

// Fig14StreamResult is one stream's pair of bars.
type Fig14StreamResult struct {
	Stream  string
	NetGbps float64
	E2EGbps float64
}

// Fig14Result is one deployment run.
type Fig14Result struct {
	Mode      Fig14Mode
	Streams   []Fig14StreamResult
	TotalNet  float64
	TotalE2E  float64
	CoreStats []hw.CoreStat
	Horizon   float64
}

// Fig14MultiStream reproduces Figure 14 for one placement mode.
func Fig14MultiStream(mode Fig14Mode) (Fig14Result, error) {
	return fig14Run(mode, 120, nil, nil)
}

// Fig14Trace runs the Figure 14 deployment with a tracer attached to
// the gateway, so its per-core activity can be inspected as a Chrome
// trace (cmd/experiments -trace).
func Fig14Trace(mode Fig14Mode) (*trace.Tracer, Fig14Result, error) {
	tr := trace.New(200000)
	res, err := fig14Run(mode, 120, tr, nil)
	return tr, res, err
}

// Fig14Speedup runs both modes and returns the cumulative results plus
// the runtime/OS end-to-end factor (the paper's 1.48X).
func Fig14Speedup() (rt, os Fig14Result, factor float64, err error) {
	rt, err = Fig14MultiStream(ModeRuntime)
	if err != nil {
		return
	}
	os, err = Fig14MultiStream(ModeOS)
	if err != nil {
		return
	}
	if os.TotalE2E > 0 {
		factor = rt.TotalE2E / os.TotalE2E
	}
	return
}
