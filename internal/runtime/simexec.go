package runtime

import (
	"fmt"
	"math/rand"
	"slices"

	"numastream/internal/hw"
	"numastream/internal/netsim"
	"numastream/internal/obs"
	"numastream/internal/sim"
)

// This file executes node configurations against the machine and network
// models — the substrate for every experiment in §3/§4 (see DESIGN.md).
// Each configured thread becomes a virtual worker homed on a model core;
// all work is charged to shared hardware resources via hw.Machine.Exec,
// so placement effects (remote access, uncore contention, core sharing)
// emerge from the model rather than from per-experiment special cases.

// Rates are per-core processing speeds for the four task classes, in
// bytes/second (input side for compress/send/receive, output side for
// decompress).
type Rates struct {
	Compress   float64
	Decompress float64
	SendProc   float64
	RecvProc   float64
}

// DefaultRates returns the calibrated per-core speeds (hw/calib.go).
func DefaultRates() Rates {
	return Rates{
		Compress:   hw.CompressRate,
		Decompress: hw.DecompressRate,
		SendProc:   hw.SendProcRate,
		RecvProc:   hw.RecvProcRate,
	}
}

// SimNode binds a machine model to its processing rates and the RNG used
// for OS-default thread placement.
type SimNode struct {
	M     *hw.Machine
	Rates Rates
	RNG   *rand.Rand
}

// NewSimNode wraps a machine with default rates and a seeded RNG.
func NewSimNode(m *hw.Machine, seed int64) *SimNode {
	return &SimNode{M: m, Rates: DefaultRates(), RNG: rand.New(rand.NewSource(seed))}
}

// StreamSpec describes one stream's workload.
type StreamSpec struct {
	Name string
	// Chunks to deliver end to end.
	Chunks int
	// ChunkBytes is the raw (uncompressed) chunk size.
	ChunkBytes float64
	// Ratio is the compression ratio applied by the compress stage
	// (wire bytes = ChunkBytes/Ratio). Ignored without a compress
	// group.
	Ratio float64
	// GenRate caps the source's raw-byte generation rate (0 =
	// unlimited, i.e. data is already resident as in §3.2's dataset).
	GenRate float64
	// SourceSocket is the NUMA domain holding the source data on the
	// sender (Table 1's "Memory Domain").
	SourceSocket int
	// QueueCap bounds the inter-stage queues (default 64 chunks).
	QueueCap int
	// Window is the per-send-thread limit on chunks in flight to the
	// receiver before backpressure pauses the sender (default 4).
	Window int
	// WarmFrac is the fraction of chunks treated as pipeline warm-up
	// and excluded from throughput (default 0.2).
	WarmFrac float64
}

func (s *StreamSpec) normalize() error {
	if s.Chunks < 5 {
		return fmt.Errorf("runtime: stream %q needs at least 5 chunks", s.Name)
	}
	if s.ChunkBytes <= 0 {
		return fmt.Errorf("runtime: stream %q has non-positive chunk size", s.Name)
	}
	if s.Ratio <= 0 {
		s.Ratio = 1
	}
	if s.QueueCap <= 0 {
		s.QueueCap = 64
	}
	if s.Window <= 0 {
		s.Window = 4
	}
	if s.WarmFrac <= 0 || s.WarmFrac >= 0.9 {
		s.WarmFrac = 0.2
	}
	return nil
}

// Stream is one sender→receiver pipeline instance plus its results.
type Stream struct {
	Spec        StreamSpec
	Sender      *SimNode
	SenderCfg   NodeConfig
	Receiver    *SimNode
	ReceiverCfg NodeConfig
	Path        *netsim.Path

	// OnDeliver, when non-nil, observes every delivered chunk with its
	// virtual delivery time and raw/wire sizes — the hook the degraded-
	// mode harness uses to bucket throughput over time.
	OnDeliver func(t, raw, wire float64)

	// Results, valid after Runner.Run.
	Delivered     int
	WarmTime      float64 // when the warm-up chunks had been delivered
	FinishTime    float64
	rawDelivered  float64
	wireDelivered float64
	warmRaw       float64
	warmWire      float64

	// queues, captured at build time for Snapshot.
	compQ, sendQ, rxQ, decQ *sim.Queue

	// stages, captured at build time: per-stage elastic controls for
	// the adaptive placement controller (GrowStage / ShrinkStage).
	stages map[TaskType]*simStage
}

// simStage is one stage's elastic worker control in the simulator —
// the virtual-time mirror of pipeline.Pool. Workers are recursive
// event closures; growth schedules a new loop on a freshly allocated
// core, and shrinking leaves domain-keyed retire tokens a worker
// consumes at its next loop head (chunk boundary), releasing its core.
// All state is mutated inside engine events, so no locking is needed.
type simStage struct {
	node    *SimNode
	spawn   func(core *hw.Core, unpinned bool)
	live    int
	domains map[int]int // target workers per socket
	retire  map[int]int // pending retire tokens per socket
	onExit  func()      // runs once when the stage drains on queue close
	drained bool
}

func (s *Stream) newStage(t TaskType, node *SimNode, onExit func()) *simStage {
	if s.stages == nil {
		s.stages = make(map[TaskType]*simStage)
	}
	st := &simStage{node: node, domains: map[int]int{}, retire: map[int]int{}, onExit: onExit}
	s.stages[t] = st
	return st
}

// launch starts the initial cohort on its placed cores.
func (sg *simStage) launch(cores []*hw.Core, unpinned bool) {
	for _, core := range cores {
		sg.live++
		sg.domains[core.Socket]++
		sg.spawn(core, unpinned)
	}
}

// takeRetire consumes a retire token matching this worker's socket. On
// a hit the worker's core is released (its model capacity frees up for
// whatever grew elsewhere) and the caller must return without touching
// its queue again.
func (sg *simStage) takeRetire(core *hw.Core) bool {
	if sg.retire[core.Socket] <= 0 {
		return false
	}
	sg.retire[core.Socket]--
	sg.node.M.ReleaseCore(core)
	sg.live--
	if sg.live == 0 {
		sg.drained = true
	}
	return true
}

// exitClosed is a worker's exit on queue close (natural drain).
func (sg *simStage) exitClosed() {
	sg.live--
	if sg.live == 0 {
		sg.drained = true
		if sg.onExit != nil {
			sg.onExit()
		}
	}
}

// GrowStage adds n workers to the stage on the given socket, returning
// how many were added (0 once the stage has drained).
func (s *Stream) GrowStage(t TaskType, n, socket int) int {
	sg := s.stages[t]
	if sg == nil || sg.drained || n <= 0 || socket < 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		core := sg.node.M.AllocCore([]int{socket})
		sg.live++
		sg.domains[socket]++
		sg.spawn(core, false)
	}
	return n
}

// ShrinkStage marks up to n workers to retire, preferring the given
// socket (-1 = busiest first), never below one target worker. Returns
// how many were marked.
func (s *Stream) ShrinkStage(t TaskType, n, socket int) int {
	sg := s.stages[t]
	if sg == nil || n <= 0 {
		return 0
	}
	total := 0
	for _, c := range sg.domains {
		total += c
	}
	marked := 0
	for marked < n && total-marked > 1 {
		d := socket
		if d < 0 {
			// Busiest domain, lowest id on ties.
			bestN := 0
			d = -1
			for dom, c := range sg.domains {
				if c > bestN || (c == bestN && d >= 0 && dom < d) {
					d, bestN = dom, c
				}
			}
		}
		if d < 0 || sg.domains[d] <= 0 {
			break
		}
		sg.domains[d]--
		sg.retire[d]++
		marked++
	}
	return marked
}

// StageWorkers returns the stage's target worker count.
func (s *Stream) StageWorkers(t TaskType) int {
	sg := s.stages[t]
	if sg == nil {
		return 0
	}
	total := 0
	for _, c := range sg.domains {
		total += c
	}
	return total
}

// StageDomains returns a copy of the stage's target per-socket counts.
func (s *Stream) StageDomains(t TaskType) map[int]int {
	sg := s.stages[t]
	if sg == nil {
		return nil
	}
	out := make(map[int]int, len(sg.domains))
	for d, c := range sg.domains {
		if c > 0 {
			out[d] = c
		}
	}
	return out
}

// Snapshot is the stream at virtual time t as a receiving node's
// registry scrape reads it: the "delivered" meter (raw bytes, chunks)
// and, for each inter-stage queue, <q>_depth, <q>_put_blocked_secs and
// <q>_get_blocked_secs (blocked seconds include waits in progress).
// Queue names follow the real pipeline's — compq, sendq, recvq, decq —
// so the snapshot-diff observer (internal/obs) reads simulated and real
// runs through the same series; keep limits the queues to the named
// ones. Call it from a scheduled event during a run, or at FinishTime
// after one; the maps are freshly allocated.
func (s *Stream) Snapshot(t float64, keep ...string) obs.Snapshot {
	snap := obs.Snapshot{
		T:      t,
		Meters: map[string]obs.MeterState{"delivered": {Bytes: int64(s.rawDelivered), Items: int64(s.Delivered)}},
		Gauges: map[string]float64{},
	}
	add := func(name string, q *sim.Queue) {
		if q == nil || len(keep) > 0 && !slices.Contains(keep, name) {
			return
		}
		snap.Gauges[name+"_depth"] = float64(q.Len())
		snap.Gauges[name+"_put_blocked_secs"] = q.PutBlockedSecs()
		snap.Gauges[name+"_get_blocked_secs"] = q.GetBlockedSecs()
	}
	add("compq", s.compQ)
	add("sendq", s.sendQ)
	add("recvq", s.rxQ)
	add("decq", s.decQ)
	return snap
}

// EndToEndBps returns the steady-state end-to-end (uncompressed) rate.
func (s *Stream) EndToEndBps() float64 {
	dt := s.FinishTime - s.WarmTime
	if dt <= 0 {
		return 0
	}
	return (s.rawDelivered - s.warmRaw) / dt
}

// NetworkBps returns the steady-state network (wire) rate.
func (s *Stream) NetworkBps() float64 {
	dt := s.FinishTime - s.WarmTime
	if dt <= 0 {
		return 0
	}
	return (s.wireDelivered - s.warmWire) / dt
}

// chunkState is a chunk descriptor moving through the virtual pipeline.
type chunkState struct {
	raw    float64 // uncompressed size
	wire   float64 // current transfer size
	socket int     // NUMA domain of current residence
}

// Runner executes a set of streams on one engine until all complete.
type Runner struct {
	Eng     *sim.Engine
	Streams []*Stream
}

// Run builds all workers and drives the simulation to completion.
func (r *Runner) Run() error {
	for _, st := range r.Streams {
		if err := st.Spec.normalize(); err != nil {
			return err
		}
		if err := r.build(st); err != nil {
			return err
		}
	}
	r.Eng.Run()
	for _, st := range r.Streams {
		if st.Delivered != st.Spec.Chunks {
			return fmt.Errorf("runtime: stream %q delivered %d/%d chunks (pipeline stalled)",
				st.Spec.Name, st.Delivered, st.Spec.Chunks)
		}
	}
	return nil
}

// PlaceGroup resolves a task group to home cores on the node's machine.
// The boolean reports whether the threads are unpinned (OS placement).
func PlaceGroup(n *SimNode, g TaskGroup) ([]*hw.Core, bool) {
	cores := make([]*hw.Core, 0, g.Count)
	switch g.Placement.Mode {
	case Pinned:
		for i := 0; i < g.Count; i++ {
			cores = append(cores, n.M.AllocCore(g.Placement.Sockets))
		}
		return cores, false
	case PinnedCores:
		for i := 0; i < g.Count; i++ {
			id := g.Placement.Cores[i%len(g.Placement.Cores)]
			if id < 0 || id >= len(n.M.Cores) {
				panic(fmt.Sprintf("runtime: placement core %d out of range", id))
			}
			c := n.M.Cores[id]
			c.Threads++
			cores = append(cores, c)
		}
		return cores, false
	case Split:
		// Even distribution across domains (Table 1's E/F): thread i
		// lands on socket i mod N, least-loaded core within it.
		for i := 0; i < g.Count; i++ {
			cores = append(cores, n.M.AllocCore([]int{i % len(n.M.Sockets)}))
		}
		return cores, false
	case OSDefault:
		// The OS scheduler's placement. CFS load-balances CPU-bound
		// threads (compression/decompression) nearly evenly across
		// all cores — Fig 8 groups the OS configurations G/H with
		// E/F — but does so NUMA-blind: the core order is a random
		// permutation, so moderate thread counts land with a chance
		// majority in one domain (Fig 9b's G/H). I/O-bound threads
		// (send/receive) sleep and wake and get wake-time placement:
		// a random core, possibly already occupied, which is how the
		// §4.2 baseline loses receive capacity to collisions. Both
		// classes pay the migration tax.
		switch g.Type {
		case Compress, Decompress:
			perm := n.RNG.Perm(len(n.M.Cores))
			for i := 0; i < g.Count; i++ {
				c := n.M.Cores[perm[i%len(perm)]]
				c.Threads++
				cores = append(cores, c)
			}
		default:
			for i := 0; i < g.Count; i++ {
				c := n.M.Cores[n.RNG.Intn(len(n.M.Cores))]
				c.Threads++
				cores = append(cores, c)
			}
		}
		return cores, true
	default:
		panic(fmt.Sprintf("runtime: unknown placement mode %q", g.Placement.Mode))
	}
}

// build wires one stream's stages onto the engine.
func (r *Runner) build(st *Stream) error {
	eng := r.Eng
	spec := st.Spec

	if st.Path == nil {
		return fmt.Errorf("runtime: stream %q has no network path", spec.Name)
	}
	nComp := st.SenderCfg.Count(Compress)
	nSend := st.SenderCfg.Count(Send)
	nRecv := st.ReceiverCfg.Count(Receive)
	nDec := st.ReceiverCfg.Count(Decompress)
	if nSend < 1 || nRecv < 1 {
		return fmt.Errorf("runtime: stream %q needs send and receive threads", spec.Name)
	}

	sendQ := sim.NewQueue(eng, spec.QueueCap)
	rxQ := sim.NewQueue(eng, spec.QueueCap)
	var compQ, decQ *sim.Queue
	if nComp > 0 {
		compQ = sim.NewQueue(eng, spec.QueueCap)
	}
	if nDec > 0 {
		decQ = sim.NewQueue(eng, spec.QueueCap)
	}
	st.compQ, st.sendQ, st.rxQ, st.decQ = compQ, sendQ, rxQ, decQ

	// --- Source ---------------------------------------------------
	srcOut := sendQ
	if nComp > 0 {
		srcOut = compQ
	}
	emitted := 0
	var emit func()
	emit = func() {
		if emitted == spec.Chunks {
			srcOut.Close()
			return
		}
		emitted++
		c := &chunkState{raw: spec.ChunkBytes, wire: spec.ChunkBytes, socket: spec.SourceSocket}
		put := func() {
			srcOut.Put(c, func(ok bool) {
				if ok {
					emit()
				}
			})
		}
		if spec.GenRate > 0 {
			// Fixed-rate generation, as in §3.1's instrument
			// emulation.
			eng.After(spec.ChunkBytes/spec.GenRate, put)
		} else {
			put()
		}
	}
	eng.After(0, emit)

	// --- Sink -----------------------------------------------------
	warmChunks := int(float64(spec.Chunks) * spec.WarmFrac)
	if warmChunks < 1 {
		warmChunks = 1
	}
	sink := func(c *chunkState) {
		st.Delivered++
		st.rawDelivered += c.raw
		st.wireDelivered += c.wire
		if st.OnDeliver != nil {
			st.OnDeliver(eng.Now(), c.raw, c.wire)
		}
		if st.Delivered == warmChunks {
			st.WarmTime = eng.Now()
			st.warmRaw = st.rawDelivered
			st.warmWire = st.wireDelivered
		}
		if st.Delivered == spec.Chunks {
			st.FinishTime = eng.Now()
			rxQ.Close()
			if decQ != nil {
				decQ.Close()
			}
		}
	}

	// --- Compression workers --------------------------------------
	if nComp > 0 {
		g, _ := st.SenderCfg.Group(Compress)
		cores, unpinned := PlaceGroup(st.Sender, g)
		stage := st.newStage(Compress, st.Sender, func() { sendQ.Close() })
		stage.spawn = func(core *hw.Core, unpinned bool) {
			var loop func()
			loop = func() {
				if stage.takeRetire(core) {
					return
				}
				compQ.Get(func(item any, ok bool) {
					if !ok {
						stage.exitClosed()
						return
					}
					c := item.(*chunkState)
					op := hw.Op{
						Compute:       c.raw / st.Sender.Rates.Compress,
						ReadBytes:     c.raw,
						ReadSocket:    c.socket,
						WriteBytes:    c.raw / spec.Ratio,
						WriteSocket:   core.Socket,
						Unpinned:      unpinned,
						Prefetchable:  true, // sequential dataset scan
						WriteAllocate: true, // bulk codec output
						Label:         "compress",
					}
					done := st.Sender.M.Exec(eng.Now(), core, op)
					eng.Schedule(done, func() {
						c.wire = c.raw / spec.Ratio
						c.socket = core.Socket
						sendQ.Put(c, func(bool) { loop() })
					})
				})
			}
			eng.After(0, loop)
		}
		stage.launch(cores, unpinned)
	}

	// --- Send workers ----------------------------------------------
	{
		g, _ := st.SenderCfg.Group(Send)
		cores, unpinned := PlaceGroup(st.Sender, g)
		stage := st.newStage(Send, st.Sender, nil)
		stage.spawn = func(core *hw.Core, unpinned bool) {
			inFlight := 0
			waiting := false
			var loop func()
			loop = func() {
				// Retiring with chunks in flight is safe: their arrival
				// continuations run independently of this loop.
				if stage.takeRetire(core) {
					return
				}
				if inFlight >= spec.Window {
					waiting = true
					return
				}
				sendQ.Get(func(item any, ok bool) {
					if !ok {
						stage.exitClosed()
						return
					}
					c := item.(*chunkState)
					op := hw.Op{
						Compute:    c.wire / st.Sender.Rates.SendProc,
						ReadBytes:  c.wire,
						ReadSocket: c.socket,
						// Send is read-only: the NIC pulls
						// from the buffer.
						WriteBytes:   0,
						WriteSocket:  core.Socket,
						Unpinned:     unpinned,
						Prefetchable: true, // sequential buffer read
						Label:        "send",
					}
					done := st.Sender.M.Exec(eng.Now(), core, op)
					eng.Schedule(done, func() {
						inFlight++
						st.Path.Send(eng.Now(), c.wire, func(arrival float64) {
							c.socket = st.Path.DstSocket()
							rxQ.Put(c, func(bool) {
								inFlight--
								if waiting {
									waiting = false
									loop()
								}
							})
						})
						loop()
					})
				})
			}
			eng.After(0, loop)
		}
		stage.launch(cores, unpinned)
	}

	// --- Receive workers -------------------------------------------
	{
		g, ok := st.ReceiverCfg.Group(Receive)
		if !ok {
			return fmt.Errorf("runtime: stream %q receiver config lacks a receive group", spec.Name)
		}
		cores, unpinned := PlaceGroup(st.Receiver, g)
		stage := st.newStage(Receive, st.Receiver, nil)
		stage.spawn = func(core *hw.Core, unpinned bool) {
			var loop func()
			loop = func() {
				if stage.takeRetire(core) {
					return
				}
				rxQ.Get(func(item any, ok bool) {
					if !ok {
						stage.exitClosed()
						return
					}
					c := item.(*chunkState)
					compute := c.wire / st.Receiver.Rates.RecvProc
					if unpinned {
						// With OS placement, RSS/RPS flow-to-core
						// steering is uncoordinated with where the
						// thread runs (§2.2), so packet payloads
						// typically sit in another core's cache
						// domain: the receive path pays the
						// remote-access stall regardless of socket.
						compute *= 1 + st.Receiver.M.Cfg.RemotePenalty
					}
					op := hw.Op{
						Compute:     compute,
						ReadBytes:   c.wire,
						ReadSocket:  c.socket, // the NIC's DMA domain
						WriteBytes:  c.wire,
						WriteSocket: core.Socket, // first-touch copy into app buffers
						Unpinned:    unpinned,
						Label:       "receive",
					}
					done := st.Receiver.M.Exec(eng.Now(), core, op)
					eng.Schedule(done, func() {
						c.socket = core.Socket
						if decQ == nil {
							sink(c)
							loop()
							return
						}
						decQ.Put(c, func(bool) { loop() })
					})
				})
			}
			eng.After(0, loop)
		}
		stage.launch(cores, unpinned)
	}

	// --- Decompression workers --------------------------------------
	if nDec > 0 {
		g, _ := st.ReceiverCfg.Group(Decompress)
		cores, unpinned := PlaceGroup(st.Receiver, g)
		stage := st.newStage(Decompress, st.Receiver, nil)
		stage.spawn = func(core *hw.Core, unpinned bool) {
			var loop func()
			loop = func() {
				if stage.takeRetire(core) {
					return
				}
				decQ.Get(func(item any, ok bool) {
					if !ok {
						stage.exitClosed()
						return
					}
					c := item.(*chunkState)
					op := hw.Op{
						Compute:       c.raw / st.Receiver.Rates.Decompress,
						ReadBytes:     c.wire,
						ReadSocket:    c.socket,
						WriteBytes:    c.raw,
						WriteSocket:   core.Socket,
						Unpinned:      unpinned,
						Prefetchable:  true, // sequential block decode
						WriteAllocate: true, // bulk codec output
						Label:         "decompress",
					}
					done := st.Receiver.M.Exec(eng.Now(), core, op)
					eng.Schedule(done, func() {
						c.socket = core.Socket
						sink(c)
						loop()
					})
				})
			}
			eng.After(0, loop)
		}
		stage.launch(cores, unpinned)
	}

	return nil
}
