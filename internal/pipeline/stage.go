package pipeline

import (
	"errors"
	"fmt"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/numa"
	"numastream/internal/queue"
	"numastream/internal/runtime"
)

// The stage kit. Every task group of a node — {C} and {S} on a sender,
// {R} and {D} on a receiver, a forwarder's intake and egress — has the
// paper's one shape: a worker count and a placement, joined to its
// neighbours by bounded queues. RunSender, RunReceiver and RunForwarder
// place every group first (node.place), then start each through start,
// which owns the elastic pool, the stage observer, the Controls hook and
// the one worker loop (runStage). A stage supplies only its per-worker
// state, its input and its work, as a stageLoop.

// node is the stage pools one RunSender, RunReceiver or RunForwarder call
// starts, joined in start order by wait.
type node struct {
	topo numa.HostTopology
	reg  *metrics.Registry
	trc  *opTracer
	ctl  *Controls
	// abort is the node's one abort path: it runs whenever a worker ends
	// with an error, before the error leaves the worker. Nil: the error
	// only ends its worker.
	abort func()
	pools []*Pool
}

// stage is one task group placed on this host.
type stage struct {
	name    string
	workers int
	pin     PinSpec
}

// place resolves a task group's placement. A node places every stage
// before it starts a goroutine, so a placement this host cannot honour
// fails the call with nothing left running.
func (n *node) place(name string, g runtime.TaskGroup) (stage, error) {
	pin, err := pinFor(n.topo, g.Placement)
	return stage{name: name, workers: g.Count, pin: pin}, err
}

// result is what one finished item adds to its stage's observer: the
// bytes the stage's meter counts, the chunk's sequence number, and the
// flow id of a cross-host journey that ends in this stage's span (0 for
// none).
type result struct {
	bytes     int
	seq, flow uint64
}

// errSkip is a stage's work reporting an item it disposed of instead of
// finishing it (a quarantined chunk): nothing is observed or handed on,
// and the worker takes its next item.
var errSkip = errors.New("pipeline: item disposed of")

// stageLoop is one worker's part of a stage. A stage builds one per
// worker, so the worker's own state (codec scratch, a shard cursor, a
// frame header) lives in these closures.
type stageLoop[In, Out any] struct {
	// next takes the worker's next item. A closed input ends the worker
	// cleanly.
	next func() (In, error)
	// work is the stage's work on one item.
	work func(In) (Out, result, error)
	// emit hands a finished item downstream; nil for a node's last stage.
	// False means downstream has closed: emit has disposed of the item
	// and the worker ends cleanly.
	emit func(Out) bool
	// close, when set, releases the worker's state as it exits.
	close func()
}

// start runs s as an elastic pool whose workers each run the loop build
// makes for them. onDrained runs once, after the last worker is out: a
// stage closes its downstream queue there. Every stage publishes two
// pool series beside its observer's: <stage>_worker_secs, the live-worker
// seconds obs divides busy time by, and <stage>_workers_pinned, how many
// workers own a pinned OS thread — what tells a run whose placement took
// effect from one where the host left nothing to place.
func start[In, Out any](n *node, s stage, onDrained func(), build func(w *Worker, obs *stageObserver) stageLoop[In, Out]) {
	obs := newStageObserver(n.reg, n.trc, s.name)
	p := StartPool(PoolConfig{
		Name: s.name, Workers: s.workers, Pin: s.pin, Topo: n.topo, OnDrained: onDrained,
	}, func(w *Worker) error {
		l := build(w, obs)
		if l.close != nil {
			defer l.close()
		}
		err := runStage(w, obs, l)
		if err != nil && n.abort != nil {
			n.abort()
		}
		return err
	})
	n.pools = append(n.pools, p)
	n.reg.RegisterGauge(s.name+"_worker_secs", p.WorkerSecs)
	n.reg.RegisterGauge(s.name+"_workers_pinned", func() float64 { return float64(p.Pinned()) })
	n.ctl.attach(s.name, p)
}

// runStage is the one worker loop. At every item boundary it honours a
// Shrink (the retirement protocol, see Worker), then takes the next item,
// does the stage's work on it, observes it and hands it on.
func runStage[In, Out any](w *Worker, obs *stageObserver, l stageLoop[In, Out]) error {
	for !w.Retiring() {
		in, err := l.next()
		if err != nil {
			return unlessStopped(err)
		}
		t0 := time.Now()
		out, r, err := l.work(in)
		if err == errSkip {
			continue
		}
		if err != nil {
			return unlessStopped(err)
		}
		obs.done(w.ID(), t0, r)
		if l.emit != nil && !l.emit(out) {
			return nil
		}
	}
	return nil
}

// unlessStopped maps the errors that mean the stage's input or output is
// gone — a closed queue or transport — to a clean worker exit.
func unlessStopped(err error) error {
	if err == queue.ErrClosed || err == msgq.ErrClosed {
		return nil
	}
	return err
}

// fromQueue is the input of a stage fed by an inter-stage queue: every
// chunk it takes is a queue-wait observation on the taking worker.
func fromQueue(q *queue.Queue[Chunk], obs *stageObserver, worker int) func() (Chunk, error) {
	return func() (Chunk, error) {
		c, err := q.Get()
		if err == nil {
			obs.dequeued(c, worker)
		}
		return c, err
	}
}

// wait joins the node's pools in start order and returns the first error.
func (n *node) wait() error {
	var first error
	for _, p := range n.pools {
		if err := p.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stageObserver bundles the flight-recorder series of one pipeline
// stage: a throughput meter, a per-chunk service-latency histogram and a
// queue-wait histogram (time a chunk sat in the stage's inbound queue).
// Observations are a handful of uncontended atomic adds per chunk.
type stageObserver struct {
	meter *metrics.Meter
	lat   *metrics.Histogram
	qwait *metrics.Histogram
	trc   *opTracer
	stage string
}

func newStageObserver(reg *metrics.Registry, trc *opTracer, stage string) *stageObserver {
	return &stageObserver{
		meter: reg.Meter(stage),
		lat:   reg.Histogram(stage + "_latency_ns"),
		qwait: reg.Histogram(stage + "_qwait_ns"),
		trc:   trc,
		stage: stage,
	}
}

// dequeued records how long c waited in the stage's inbound queue (and
// a "queue-wait" trace span on the consuming worker's track).
func (so *stageObserver) dequeued(c Chunk, worker int) {
	if c.enqAt.IsZero() {
		return
	}
	so.qwait.ObserveDuration(time.Since(c.enqAt))
	so.trc.span("queue-wait", worker, c.enqAt, len(c.Data), c.Seq)
}

// done records one finished item: service latency since t0, meter
// bytes, and the stage's trace span (carrying the consuming end of the
// item's journey flow when r names one).
func (so *stageObserver) done(worker int, t0 time.Time, r result) {
	so.lat.ObserveDuration(time.Since(t0))
	so.meter.Add(r.bytes)
	so.trc.spanFlow(so.stage, worker, t0, r.bytes, r.seq, r.flow)
}

// pinFor maps a runtime placement onto host CPUs, carrying each
// worker's NUMA domain along so buffer rentals stay local to the pin.
func pinFor(topo numa.HostTopology, p runtime.Placement) (PinSpec, error) {
	switch p.Mode {
	case runtime.Pinned:
		sets := make([][]int, 0, len(p.Sockets))
		for _, s := range p.Sockets {
			n, ok := topo.Node(s)
			if !ok {
				return PinSpec{}, fmt.Errorf("pipeline: no NUMA node %d on this host", s)
			}
			sets = append(sets, n.CPUs)
		}
		return PinSpec{CPUSets: sets, Domains: append([]int(nil), p.Sockets...)}, nil
	case runtime.PinnedCores:
		pin := CorePin(p.Cores)
		for _, c := range p.Cores {
			d := topo.NodeOfCPU(c)
			if d < 0 {
				d = 0 // unknown core: fall back to the first shard
			}
			pin.Domains = append(pin.Domains, d)
		}
		return pin, nil
	case runtime.Split:
		return SplitPin(topo), nil
	case runtime.OSDefault:
		return Unpinned, nil
	default:
		return PinSpec{}, fmt.Errorf("pipeline: unknown placement mode %q", p.Mode)
	}
}

// PinnedWorkers reports how many of cfg's stage workers will own a
// pinned OS thread on this host, out of how many it configures: the
// workers whose placement names a CPU set that constrains them
// (numa.PinEffect, the rule Pool applies at spawn). It is what a
// start-up line or a benchmark's host description needs to tell a
// placed run from one the host left nothing to place.
func PinnedWorkers(topo numa.HostTopology, cfg runtime.NodeConfig) (pinned, total int, err error) {
	for _, g := range cfg.Groups {
		pin, err := pinFor(topo, g.Placement)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < g.Count; i++ {
			total++
			if numa.PinEffect(pin.CPUsFor(i)) == numa.Constrains {
				pinned++
			}
		}
	}
	return pinned, total, nil
}
