// Package hw models the hardware the paper evaluated on: two-socket NUMA
// servers whose cores, per-socket memory controllers, per-socket
// LLC/uncore paths, socket interconnect (QPI/UPI) and PCIe-attached NICs
// are shared resources. Every chunk operation the runtime executes is
// charged against these resources on a sim.Engine; contention between
// threads then produces the paper's observations (remote-access penalty,
// core oversubscription, memory-controller saturation) instead of being
// hard-coded.
package hw

import (
	"fmt"
	"math"

	"numastream/internal/sim"
	"numastream/internal/trace"
)

// NICConfig describes one NIC and its NUMA attachment point.
type NICConfig struct {
	Name   string
	Socket int     // NUMA domain the NIC's PCIe link hangs off
	BW     float64 // bytes/s
}

// Config describes a machine model.
type Config struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	MemBW          float64 // per-socket memory controller, bytes/s
	UncoreBW       float64 // per-socket LLC/uncore path, bytes/s
	InterconnectBW float64 // cross-socket link (QPI/UPI), bytes/s
	RemotePenalty  float64 // fractional compute slowdown when reading remote memory
	CtxSwitchTax   float64 // fractional slowdown per extra thread sharing a core
	MigrationTax   float64 // fractional slowdown for unpinned (OS-scheduled) threads
	NICs           []NICConfig
}

// Machine is an instantiated machine model bound to a simulation engine.
type Machine struct {
	Cfg     Config
	Eng     *sim.Engine
	Sockets []*Socket
	Cores   []*Core // global core list, id = index
	NICs    []*NIC

	// Tracer, when non-nil, records every executed op as a Chrome
	// trace duration event on its (machine, core) track.
	Tracer *trace.Tracer

	interconnect *sim.Server
}

// Socket is one NUMA domain: its cores, memory controller, and uncore
// (LLC + on-die fabric) path.
type Socket struct {
	ID     int
	Cores  []*Core
	Mem    *sim.Server
	Uncore *sim.Server
}

// Core is one physical core. Threads counts pipeline workers currently
// homed on the core; RemoteBytes/TotalBytes feed the Fig 6/7 metrics.
type Core struct {
	ID     int
	Socket int
	Exec   *sim.Server

	Threads     int
	RemoteBytes float64
	TotalBytes  float64
}

// NIC is a network interface with separate rx and tx capacity, DMA-ing
// into its attachment socket's memory.
type NIC struct {
	Name   string
	Socket int
	BW     float64
	Rx     *sim.Server
	Tx     *sim.Server
}

// New builds a machine on the engine.
func New(eng *sim.Engine, cfg Config) *Machine {
	if cfg.Sockets < 1 || cfg.CoresPerSocket < 1 {
		panic(fmt.Sprintf("hw: invalid machine %d sockets x %d cores", cfg.Sockets, cfg.CoresPerSocket))
	}
	m := &Machine{Cfg: cfg, Eng: eng}
	m.interconnect = sim.NewServer(cfg.Name+"/qpi", cfg.InterconnectBW)
	coreID := 0
	for s := 0; s < cfg.Sockets; s++ {
		sock := &Socket{
			ID:     s,
			Mem:    sim.NewServer(fmt.Sprintf("%s/mc%d", cfg.Name, s), cfg.MemBW),
			Uncore: sim.NewServer(fmt.Sprintf("%s/uncore%d", cfg.Name, s), cfg.UncoreBW),
		}
		for c := 0; c < cfg.CoresPerSocket; c++ {
			core := &Core{
				ID:     coreID,
				Socket: s,
				Exec:   sim.NewServer(fmt.Sprintf("%s/core%d", cfg.Name, coreID), 1),
			}
			coreID++
			sock.Cores = append(sock.Cores, core)
			m.Cores = append(m.Cores, core)
		}
		m.Sockets = append(m.Sockets, sock)
	}
	for _, nc := range cfg.NICs {
		if nc.Socket < 0 || nc.Socket >= cfg.Sockets {
			panic(fmt.Sprintf("hw: NIC %q attached to nonexistent socket %d", nc.Name, nc.Socket))
		}
		m.NICs = append(m.NICs, &NIC{
			Name:   nc.Name,
			Socket: nc.Socket,
			BW:     nc.BW,
			Rx:     sim.NewServer(cfg.Name+"/"+nc.Name+"/rx", nc.BW),
			Tx:     sim.NewServer(cfg.Name+"/"+nc.Name+"/tx", nc.BW),
		})
	}
	return m
}

// NIC returns the NIC with the given name.
func (m *Machine) NIC(name string) (*NIC, bool) {
	for _, n := range m.NICs {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// AllocCore homes a new worker thread on the least-loaded core among the
// given sockets (ties broken by lowest core id, matching how pinned
// deployments fill domains) and returns it. Pass all socket ids for an
// unrestricted allocation.
func (m *Machine) AllocCore(sockets []int) *Core {
	var best *Core
	for _, s := range sockets {
		if s < 0 || s >= len(m.Sockets) {
			panic(fmt.Sprintf("hw: AllocCore on nonexistent socket %d", s))
		}
		for _, c := range m.Sockets[s].Cores {
			if best == nil || c.Threads < best.Threads {
				best = c
			}
		}
	}
	if best == nil {
		panic("hw: AllocCore with empty socket list")
	}
	best.Threads++
	return best
}

// ReleaseCore removes a worker thread homed by AllocCore.
func (m *Machine) ReleaseCore(c *Core) {
	if c.Threads > 0 {
		c.Threads--
	}
}

// Op is one unit of pipeline work: some compute plus data movement. Reads
// come from ReadSocket's memory, writes land in WriteSocket's memory
// (callers emulate first-touch by passing the executing thread's socket).
type Op struct {
	Compute     float64 // seconds of core time at full local speed
	ReadBytes   float64
	ReadSocket  int
	WriteBytes  float64
	WriteSocket int
	Unpinned    bool // thread is OS-scheduled, pays the migration tax
	// Prefetchable marks sequential-streaming reads whose remote-access
	// latency the hardware prefetcher hides (the paper's Obs. 2/3:
	// compression and decompression speed is indifferent to the data's
	// NUMA domain thanks to "data cache prefetching technology").
	// Non-prefetchable ops — per-packet receive processing — stall on
	// remote loads and pay the RemotePenalty. Cross-socket bandwidth is
	// charged either way.
	Prefetchable bool
	// WriteAllocate marks ops whose stores miss the LLC and trigger
	// read-for-ownership plus writeback — bulk codec output streaming.
	// Such writes cost twice their size on the uncore and memory
	// controller, which is what makes 16 same-socket decompressors
	// contend (Fig 9) while the DDIO-resident receive path does not.
	WriteAllocate bool
	// Label names the op in traces ("compress", "receive", ...).
	Label string
}

// Exec charges op against the machine's shared resources, executing on
// core, and returns the virtual completion time. The completion is the
// max across the core's FIFO schedule and every memory-path server the
// op's bytes traverse — compute/IO overlap with contention serialization,
// the behaviour each of the paper's observations stems from.
func (m *Machine) Exec(now float64, core *Core, op Op) float64 {
	compute := op.Compute
	remoteRead := op.ReadBytes > 0 && op.ReadSocket != core.Socket
	if remoteRead && !op.Prefetchable {
		// Remote loads stall the pipeline: §2.2's cross-socket
		// packet-processing latency.
		compute *= 1 + m.Cfg.RemotePenalty
	}
	if core.Threads > 1 {
		// Context switching between co-located workers (Obs. 2). The
		// tax saturates: past a few co-resident threads the marginal
		// switch cost is amortized over the same quantum budget.
		tax := m.Cfg.CtxSwitchTax * float64(core.Threads-1)
		if tax > maxCtxSwitchTax {
			tax = maxCtxSwitchTax
		}
		compute *= 1 + tax
	}
	if op.Unpinned {
		// OS-scheduled threads migrate and refault caches.
		compute *= 1 + m.Cfg.MigrationTax
	}

	coreStart := math.Max(now, core.Exec.FreeAt())
	done := core.Exec.Acquire(now, compute)
	if m.Tracer != nil {
		label := op.Label
		if label == "" {
			label = "op"
		}
		m.Tracer.Add(trace.Event{
			Name:     label,
			Category: label,
			Start:    coreStart,
			Duration: done - coreStart,
			Process:  m.Cfg.Name,
			Track:    core.ID,
			Args: map[string]any{
				"readBytes":  op.ReadBytes,
				"writeBytes": op.WriteBytes,
				"remote":     remoteRead,
			},
		})
	}

	writeCost := op.WriteBytes
	if op.WriteAllocate {
		writeCost *= 2 // read-for-ownership + writeback
	}
	total := op.ReadBytes + writeCost
	if total > 0 {
		// All of the op's data moves through the executing socket's
		// LLC/uncore path (§3.3's "intra-socket resource contention").
		done = math.Max(done, m.Sockets[core.Socket].Uncore.Acquire(now, total))
	}
	if op.ReadBytes > 0 {
		done = math.Max(done, m.Sockets[op.ReadSocket].Mem.Acquire(now, op.ReadBytes))
	}
	if writeCost > 0 {
		done = math.Max(done, m.Sockets[op.WriteSocket].Mem.Acquire(now, writeCost))
	}
	cross := 0.0
	if op.ReadSocket != core.Socket {
		cross += op.ReadBytes
	}
	if op.WriteSocket != core.Socket {
		cross += op.WriteBytes
	}
	if cross > 0 {
		done = math.Max(done, m.interconnect.Acquire(now, cross))
	}
	// Counters track logical bytes (Fig 7's metric), not the
	// write-allocate-inflated uncore cost.
	core.TotalBytes += op.ReadBytes + op.WriteBytes
	core.RemoteBytes += cross
	return done
}

// DMAWrite models a NIC (or other PCIe device) writing bytes directly
// into the given socket's memory, bypassing any core.
func (m *Machine) DMAWrite(now float64, socket int, bytes float64) float64 {
	return m.Sockets[socket].Mem.Acquire(now, bytes)
}

// CoreStat is a per-core metrics snapshot (Figs 6 and 7).
type CoreStat struct {
	ID          int
	Socket      int
	Utilization float64 // busy fraction over the horizon
	RemoteBytes float64
	TotalBytes  float64
}

// CoreStats returns per-core utilization over the horizon plus remote
// traffic counters.
func (m *Machine) CoreStats(horizon float64) []CoreStat {
	stats := make([]CoreStat, len(m.Cores))
	for i, c := range m.Cores {
		stats[i] = CoreStat{
			ID:          c.ID,
			Socket:      c.Socket,
			Utilization: c.Exec.Utilization(horizon),
			RemoteBytes: c.RemoteBytes,
			TotalBytes:  c.TotalBytes,
		}
	}
	return stats
}
