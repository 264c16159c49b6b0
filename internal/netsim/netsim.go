// Package netsim models the network between machine models: NIC transmit
// and receive engines, shared backbone links with bandwidth and RTT, and
// the DMA step that lands received bytes in the memory of the NUMA domain
// the receiving NIC is attached to (§2.2 of the paper). It replaces the
// real 100/200 Gbps APS↔ALCF paths of the evaluation.
package netsim

import (
	"math"

	"numastream/internal/faults"
	"numastream/internal/hw"
	"numastream/internal/sim"
)

// Link is a shared network segment. A fault schedule (SetFaults) makes
// the link lose capacity over chosen virtual-time windows — outages and
// degradation on the simulated WAN, the counterpart of the real-mode
// connection faults in internal/faults.
type Link struct {
	Srv *sim.Server
	RTT float64 // seconds, end to end

	sched      faults.LinkSchedule
	faultDelay float64 // cumulative extra service time faults added
	faultBytes float64 // bytes served while a fault schedule was installed
}

// NewLink returns a link with the given capacity (bytes/s) and RTT.
func NewLink(eng *sim.Engine, name string, bw, rtt float64) *Link {
	return &Link{Srv: sim.NewServer(name, bw), RTT: rtt}
}

// SetFaults installs a fault schedule on the link (normalizing it
// first). Pass an empty schedule to clear.
func (l *Link) SetFaults(s faults.LinkSchedule) error {
	norm, err := s.Normalize()
	if err != nil {
		return err
	}
	if len(norm) == 0 {
		norm = nil
	}
	l.sched = norm
	return nil
}

// FaultDelay returns the cumulative extra service time (seconds) the
// fault schedule has inflicted on this link's traffic.
func (l *Link) FaultDelay() float64 { return l.faultDelay }

// Acquire reserves link capacity for one message and returns its
// completion time. Without a fault schedule this is the plain FIFO
// server; with one, service time is stretched across outage and
// degraded-capacity windows. Either way the reservation lives on the
// Server's single FIFO timeline (the stretched tail is pushed back in
// via Occupy), so a schedule installed or cleared mid-run can never
// double-book capacity already reserved before the switch.
func (l *Link) Acquire(now, bytes float64) float64 {
	nominal := l.Srv.Acquire(now, bytes)
	if l.sched == nil {
		return nominal
	}
	d := bytes / l.Srv.Rate()
	start := nominal - d // the FIFO start the server granted
	end := l.sched.Stretch(start, d)
	l.Srv.Occupy(end)
	l.faultDelay += end - nominal
	l.faultBytes += bytes
	return end
}

// Path is a unidirectional data path from a sender machine's NIC over
// one or more links into a receiver machine's NIC and memory. A
// single-link path is the star topology of Figures 1/10/13; a
// multi-link path is a relayed chain (sender → relay → gateway), each
// hop a separately faultable segment.
type Path struct {
	eng *sim.Engine

	src    *hw.Machine
	srcNIC *hw.NIC
	links  []*Link
	dst    *hw.Machine
	dstNIC *hw.NIC
}

// NewPath wires a single-link path together. Multiple paths may share
// the same link and the same destination NIC; their traffic then
// contends.
func NewPath(eng *sim.Engine, src *hw.Machine, srcNIC *hw.NIC, link *Link, dst *hw.Machine, dstNIC *hw.NIC) *Path {
	return NewPathVia(eng, src, srcNIC, []*Link{link}, dst, dstNIC)
}

// NewPathVia wires a multi-hop path crossing every link in order —
// the relayed sender → relay → gateway chains of the churn drills.
// The intermediate relay is modeled as cut-through store-and-forward:
// each hop's link capacity and RTT are charged, but no relay CPU
// (compressed chunks pass through a real relay verbatim, so its
// per-byte cost is the links', not the cores'). NewPathVia panics on an
// empty link list.
func NewPathVia(eng *sim.Engine, src *hw.Machine, srcNIC *hw.NIC, links []*Link, dst *hw.Machine, dstNIC *hw.NIC) *Path {
	if len(links) == 0 {
		panic("netsim: path needs at least one link")
	}
	return &Path{eng: eng, src: src, srcNIC: srcNIC, links: append([]*Link(nil), links...), dst: dst, dstNIC: dstNIC}
}

// DstSocket returns the NUMA domain received data lands in.
func (p *Path) DstSocket() int { return p.dstNIC.Socket }

// Link returns the first segment this path crosses (the only one on a
// single-link path).
func (p *Path) Link() *Link { return p.links[0] }

// Send moves one message of the given size across the path and invokes
// k with the time the data is resident in receiver memory. The transfer
// holds the sender's NIC tx engine, a fair share of every link on the
// path, the receiver's NIC rx engine, and finally DMAs into the
// receiver NIC's attachment domain. The bandwidth stages are acquired
// at send time (cut-through pipelining: per-message completion is
// governed by the slowest stage, matching steady-state TCP behaviour),
// then half the RTT of each hop of propagation is added.
func (p *Path) Send(now, bytes float64, k func(arrival float64)) {
	t := p.srcNIC.Tx.Acquire(now, bytes)
	for _, l := range p.links {
		t = math.Max(t, l.Acquire(now, bytes))
	}
	t = math.Max(t, p.dstNIC.Rx.Acquire(now, bytes))
	for _, l := range p.links {
		t += l.RTT / 2
	}
	p.eng.Schedule(t, func() {
		done := p.dst.DMAWrite(p.eng.Now(), p.dstNIC.Socket, bytes)
		if done > p.eng.Now() {
			p.eng.Schedule(done, func() { k(done) })
			return
		}
		k(p.eng.Now())
	})
}
