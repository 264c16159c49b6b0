// Package sim is a small discrete-event simulation engine. The paper's
// evaluation ran on two-socket Xeon servers with 100/200 Gbps NICs and a
// real APS↔ALCF network path; none of that hardware exists here, so the
// experiments drive the runtime system against machine and network models
// built on this engine instead (see DESIGN.md §2). The engine provides a
// virtual clock, an event heap, FIFO capacity servers for shared
// resources (cores, memory controllers, socket uncore paths, interconnect
// links, NICs) and virtual-time bounded queues connecting pipeline
// stages.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Engine owns virtual time and the pending event set. It is
// single-threaded by design: determinism is what makes the experiment
// harnesses reproducible.
type Engine struct {
	now    float64
	events eventHeap
	seq    int64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at virtual time `at`. Scheduling in the past panics:
// it always indicates a modelling bug, and silently clamping would skew
// measured throughput.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, fn: fn})
}

// After runs fn d seconds from now.
func (e *Engine) After(d float64, fn func()) {
	e.Schedule(e.now+d, fn)
}

// Run executes events until none remain and returns the final time.
func (e *Engine) Run() float64 {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

type event struct {
	at  float64
	seq int64 // FIFO tie-break for equal times
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Server models a shared resource serving requests FIFO at a fixed
// capacity (units per second): a CPU core (units = seconds of compute,
// rate 1), a memory controller or interconnect link (units = bytes).
// Under saturation the aggregate service rate equals the capacity, which
// is exactly the contention behaviour the paper's observations hinge on.
type Server struct {
	name   string
	rate   float64
	freeAt float64
	served float64
	busy   float64
}

// NewServer returns a server with the given capacity in units/second.
func NewServer(name string, rate float64) *Server {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: server %q rate must be positive, got %v", name, rate))
	}
	return &Server{name: name, rate: rate}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Rate returns the server's capacity in units/second.
func (s *Server) Rate() float64 { return s.rate }

// Acquire reserves `amount` units starting no earlier than now and
// returns the completion time. Requests queue FIFO behind earlier
// reservations.
func (s *Server) Acquire(now, amount float64) float64 {
	if amount < 0 {
		panic(fmt.Sprintf("sim: negative acquire %v on %q", amount, s.name))
	}
	start := math.Max(now, s.freeAt)
	d := amount / s.rate
	s.freeAt = start + d
	s.served += amount
	s.busy += d
	return s.freeAt
}

// FreeAt returns the time at which the server becomes idle.
func (s *Server) FreeAt() float64 { return s.freeAt }

// Occupy extends the server's FIFO reservation timeline through `until`
// (a no-op if the server is already reserved past it) without accruing
// served units or busy time. Wrappers that stretch a reservation they
// just Acquired — netsim's fault-scheduled links — use it to keep the
// extra occupancy on the server's single timeline, so later requests
// cannot double-book the stretched interval.
func (s *Server) Occupy(until float64) {
	if until > s.freeAt {
		s.freeAt = until
	}
}

// Served returns total units served.
func (s *Server) Served() float64 { return s.served }

// BusySeconds returns cumulative service time.
func (s *Server) BusySeconds() float64 { return s.busy }

// Utilization returns busy time as a fraction of the given horizon.
func (s *Server) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	u := s.busy / horizon
	if u > 1 {
		u = 1
	}
	return u
}

// Queue is a bounded FIFO carrying items between simulated pipeline
// stages, the virtual-time analogue of queue.Queue. Handoffs are in
// continuation-passing style: Put and Get invoke their callbacks when
// the operation completes, which may be immediately (still synchronously,
// via a zero-delay event) or after the peer side unblocks.
type Queue struct {
	eng      *Engine
	capacity int
	items    []any
	getters  []pendingGet
	putters  []pendingPut
	closed   bool

	// Cumulative virtual seconds producers/consumers spent blocked on
	// this queue (completed waits; the accessors add in-progress waits).
	putBlockedAccrued float64
	getBlockedAccrued float64
}

type pendingPut struct {
	item  any
	k     func(ok bool)
	since float64 // virtual time the producer blocked
}

type pendingGet struct {
	k     func(item any, ok bool)
	since float64 // virtual time the consumer blocked
}

// NewQueue returns a bounded queue on the engine.
func NewQueue(eng *Engine, capacity int) *Queue {
	if capacity < 1 {
		panic("sim: queue capacity must be >= 1")
	}
	return &Queue{eng: eng, capacity: capacity}
}

// Len returns current occupancy.
func (q *Queue) Len() int { return len(q.items) }

// PutBlockedSecs returns cumulative virtual seconds producers spent
// blocked on a full queue, including waits still in progress at the
// current virtual time — the backpressure signal bottleneck attribution
// reads mid-run.
func (q *Queue) PutBlockedSecs() float64 {
	s := q.putBlockedAccrued
	for _, p := range q.putters {
		s += q.eng.now - p.since
	}
	return s
}

// GetBlockedSecs returns cumulative virtual seconds consumers spent
// blocked on an empty queue, including waits in progress.
func (q *Queue) GetBlockedSecs() float64 {
	s := q.getBlockedAccrued
	for _, g := range q.getters {
		s += q.eng.now - g.since
	}
	return s
}

// Put enqueues item, invoking k(true) once accepted (backpressure blocks
// the producer until a consumer frees space) or k(false) if the queue is
// closed first. k may be nil.
func (q *Queue) Put(item any, k func(ok bool)) {
	if k == nil {
		k = func(bool) {}
	}
	if q.closed {
		q.eng.After(0, func() { k(false) })
		return
	}
	// Hand off directly to a waiting consumer.
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		q.getBlockedAccrued += q.eng.now - g.since
		q.eng.After(0, func() { g.k(item, true) })
		q.eng.After(0, func() { k(true) })
		return
	}
	if len(q.items) < q.capacity {
		q.items = append(q.items, item)
		q.eng.After(0, func() { k(true) })
		return
	}
	q.putters = append(q.putters, pendingPut{item: item, k: k, since: q.eng.now})
}

// Get dequeues an item, invoking k(item, true) when one is available or
// k(nil, false) once the queue is closed and drained.
func (q *Queue) Get(k func(item any, ok bool)) {
	if len(q.items) > 0 {
		item := q.items[0]
		q.items = q.items[1:]
		// Admit a blocked producer into the freed slot.
		if len(q.putters) > 0 {
			p := q.putters[0]
			q.putters = q.putters[1:]
			q.putBlockedAccrued += q.eng.now - p.since
			q.items = append(q.items, p.item)
			q.eng.After(0, func() { p.k(true) })
		}
		q.eng.After(0, func() { k(item, true) })
		return
	}
	if len(q.putters) > 0 {
		// Capacity saturated by waiting producers (possible when
		// capacity is tiny): hand over directly.
		p := q.putters[0]
		q.putters = q.putters[1:]
		q.putBlockedAccrued += q.eng.now - p.since
		q.eng.After(0, func() { p.k(true) })
		q.eng.After(0, func() { k(p.item, true) })
		return
	}
	if q.closed {
		q.eng.After(0, func() { k(nil, false) })
		return
	}
	q.getters = append(q.getters, pendingGet{k: k, since: q.eng.now})
}

// Close marks the queue closed: waiting and future producers fail,
// consumers drain remaining items then fail. Idempotent.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, p := range q.putters {
		p := p
		q.putBlockedAccrued += q.eng.now - p.since
		q.eng.After(0, func() { p.k(false) })
	}
	q.putters = nil
	if len(q.items) == 0 {
		for _, g := range q.getters {
			g := g
			q.getBlockedAccrued += q.eng.now - g.since
			q.eng.After(0, func() { g.k(nil, false) })
		}
		q.getters = nil
	}
}
