// Package pipeline runs the runtime's heterogeneous software pipeline on
// real goroutine workers: worker pools placed on NUMA domains or
// explicit cores — each worker owning a pinned OS thread when, and only
// when, its CPU set narrows where it may run (see spawnLocked) —
// connected by the bounded queues of package queue. This is the
// real-execution counterpart of the simulated executor in package
// runtime — the same NodeConfig drives both.
//
// Pools are elastic: Grow spawns additional workers on a controller-
// chosen NUMA domain and Shrink retires workers lazily — a retiring
// worker finishes the chunk in hand and exits at the next chunk
// boundary, so no in-flight chunk is ever dropped or reordered. The
// adaptive placement controller (package adapt) drives both through the
// Controls actuator.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"numastream/internal/numa"
)

// PinSpec says where a pool's workers run. Empty CPUSets leaves workers
// unpinned (the OS-default baseline).
type PinSpec struct {
	// CPUSets[i] is the CPU set for worker i (mod len). A one-element
	// slice pins every worker to the same set (e.g. a whole NUMA
	// domain); per-worker singleton sets pin each worker to one core.
	CPUSets [][]int
	// Domains[i] is the NUMA domain worker i (mod len) runs on —
	// parallel to CPUSets. The buffer pool keys its shards on this, so
	// a worker rents memory local to where it is pinned. Empty means
	// "no domain knowledge" (unpinned workers): DomainFor returns 0 and
	// the pool degrades to a single logical shard.
	Domains []int
}

// DomainFor returns the NUMA domain worker i runs on, 0 when the spec
// carries no domain information.
func (p PinSpec) DomainFor(worker int) int {
	if len(p.Domains) == 0 {
		return 0
	}
	return p.Domains[worker%len(p.Domains)]
}

// CPUsFor returns the CPU set worker i is pinned to, nil when the spec
// carries none (unpinned).
func (p PinSpec) CPUsFor(worker int) []int {
	if len(p.CPUSets) == 0 {
		return nil
	}
	return p.CPUSets[worker%len(p.CPUSets)]
}

// Unpinned is the zero PinSpec: OS placement.
var Unpinned = PinSpec{}

// DomainPin returns a PinSpec placing every worker anywhere within the
// given topology node — the numa_bind() style the paper uses.
func DomainPin(topo numa.HostTopology, node int) (PinSpec, error) {
	n, ok := topo.Node(node)
	if !ok {
		return PinSpec{}, fmt.Errorf("pipeline: no such NUMA node %d", node)
	}
	return PinSpec{CPUSets: [][]int{n.CPUs}, Domains: []int{node}}, nil
}

// CorePin returns a PinSpec placing worker i on cores[i mod len] alone.
func CorePin(cores []int) PinSpec {
	sets := make([][]int, len(cores))
	for i, c := range cores {
		sets[i] = []int{c}
	}
	return PinSpec{CPUSets: sets}
}

// SplitPin returns a PinSpec alternating workers across all topology
// nodes (the Table 1 E/F placement).
func SplitPin(topo numa.HostTopology) PinSpec {
	sets := make([][]int, 0, len(topo.Nodes))
	doms := make([]int, 0, len(topo.Nodes))
	for _, n := range topo.Nodes {
		sets = append(sets, n.CPUs)
		doms = append(doms, n.ID)
	}
	return PinSpec{CPUSets: sets, Domains: doms}
}

// Worker is the per-goroutine handle a pool body receives. Bodies must
// poll Retiring() at chunk boundaries (after finishing the chunk in
// hand) and return nil when it reports true — that is the entire
// retirement protocol, which keeps in-flight chunks intact by
// construction.
type Worker struct {
	id     int
	domain int
	retire chan struct{}
	// retired marks whether this worker was counted out of the target
	// view by Shrink (vs exiting naturally on drain/error). Guarded by
	// the owning pool's mu.
	retired bool
	// pinned marks a worker that owns a pinned OS thread (counted in the
	// pool's pinned). Guarded by the owning pool's mu.
	pinned bool
}

// ID returns the worker's pool-unique id. Ids are never reused, so a
// grown worker is distinguishable from the initial cohort in logs.
func (w *Worker) ID() int { return w.id }

// Domain returns the NUMA domain this worker was placed on (0 when the
// pool has no domain knowledge). Buffer-pool leases key on this.
func (w *Worker) Domain() int { return w.domain }

// Retiring reports whether Shrink has asked this worker to exit. The
// check is non-blocking and allocation-free — safe on the chunk path.
func (w *Worker) Retiring() bool {
	select {
	case <-w.retire:
		return true
	default:
		return false
	}
}

// PoolConfig configures an elastic pool.
type PoolConfig struct {
	Name    string
	Workers int     // initial worker count
	Pin     PinSpec // placement for the initial cohort
	// Topo lets Grow resolve a controller-chosen domain to a CPU set.
	// Nil topology (or an unknown domain) grows unpinned workers that
	// still carry the requested domain label for bufpool locality.
	Topo numa.HostTopology
	// MinWorkers is the Shrink floor (default 1): the pool never
	// retires its last active worker, so a stage cannot be starved to
	// death by the controller.
	MinWorkers int
	// MaxWorkers caps Grow (0 = unbounded).
	MaxWorkers int
	// OnDrained runs exactly once, after the last worker has exited and
	// the pool sealed. Stages use it to close their downstream queue —
	// the elastic replacement for the old "last worker closes" counter,
	// correct under any interleaving of Grow, Shrink and natural drain.
	OnDrained func()
}

// Pool is an elastic set of worker goroutines running one pipeline
// stage.
type Pool struct {
	name string
	wg   sync.WaitGroup
	cfg  PoolConfig
	// body is written once in StartPool before the pool escapes; Grow
	// spawns more workers running the same body.
	body func(w *Worker) error

	mu       sync.Mutex
	errs     []error
	pinFails int
	pinned   int // live workers that own a pinned OS thread
	nextID   int
	workers  map[int]*Worker // live (spawned, not yet exited)
	retiring int             // live workers marked by Shrink
	domains  map[int]int     // target view: domain → active workers
	sealed   bool            // drained: no worker will ever run again
	drained  bool            // OnDrained already ran
}

// Start launches n workers running body. A worker whose PinSpec CPU set
// restricts where it may run locks an OS thread and pins it; one whose
// set covers every CPU the process is allowed runs as a plain goroutine
// (see spawnLocked). Pinning failures (unsupported platform, a set
// naming no CPU of this host, restricted sandbox) are counted, not
// fatal — the stage still runs, as plain goroutines, and PinFailures
// reports it.
func Start(name string, n int, pin PinSpec, body func(w *Worker) error) *Pool {
	return StartPool(PoolConfig{Name: name, Workers: n, Pin: pin}, body)
}

// StartPool launches cfg.Workers workers running body under the full
// elastic configuration.
func StartPool(cfg PoolConfig, body func(w *Worker) error) *Pool {
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	p := &Pool{
		name:    cfg.Name,
		cfg:     cfg,
		body:    body,
		workers: make(map[int]*Worker),
		domains: make(map[int]int),
	}
	p.mu.Lock()
	for i := 0; i < cfg.Workers; i++ {
		p.spawnLocked(cfg.Pin.DomainFor(i), cfg.Pin.CPUsFor(i), body)
	}
	if cfg.Workers <= 0 {
		p.sealed = true
	}
	p.mu.Unlock()
	return p
}

// spawnLocked launches one worker. Caller holds p.mu; the worker's exit
// path also takes p.mu, so no exit can interleave with a spawn batch.
//
// Whether the worker owns an OS thread follows from what its CPU set
// would do here, not from its having one (numa.PinEffect, read now — a
// spawn is rare and a cpuset can change): a set that restricts nothing
// runs as an ordinary goroutine, exactly like an unpinned worker; a set
// that cannot be applied is a pin failure and also runs unlocked; only
// a set that constrains the thread is worth the locked-thread hand-off
// every queue wake-up then costs (numa.Pin). The worker's domain label,
// and with it bufpool sharding, is the same in all three cases.
func (p *Pool) spawnLocked(domain int, cpus []int, body func(w *Worker) error) {
	w := &Worker{id: p.nextID, domain: domain, retire: make(chan struct{})}
	switch numa.PinEffect(cpus) {
	case numa.Constrains:
		w.pinned = true
		p.pinned++
	case numa.Inapplicable:
		p.pinFails++
	}
	p.nextID++
	p.workers[w.id] = w
	p.domains[domain]++
	p.wg.Add(1)
	go func() {
		defer p.exit(w)
		if w.pinned {
			// No deferred unlock: the pinned thread ends with this
			// goroutine instead of rejoining the scheduler narrowed.
			runtime.LockOSThread()
			if err := numa.Pin(cpus); err != nil {
				runtime.UnlockOSThread()
				p.mu.Lock()
				w.pinned = false
				p.pinned--
				p.pinFails++
				p.mu.Unlock()
			}
		}
		if err := body(w); err != nil {
			p.mu.Lock()
			p.errs = append(p.errs, fmt.Errorf("%s[%d]: %w", p.name, w.id, err))
			p.mu.Unlock()
		}
	}()
}

// exit is every worker's deferred bookkeeping: drop it from the live
// set, seal the pool when it was the last, and run OnDrained exactly
// once — before wg.Done, so Wait() observing the pool finished implies
// the downstream queue is already closed (matching the old semantics).
func (p *Pool) exit(w *Worker) {
	p.mu.Lock()
	delete(p.workers, w.id)
	if w.pinned {
		p.pinned--
	}
	if w.retired {
		p.retiring--
	} else {
		// A natural exit (drain or error) leaves the target view too.
		if p.domains[w.domain] > 0 {
			p.domains[w.domain]--
		}
	}
	var drain func()
	if len(p.workers) == 0 {
		p.sealed = true
		if !p.drained {
			p.drained = true
			drain = p.cfg.OnDrained
		}
	}
	p.mu.Unlock()
	if drain != nil {
		drain()
	}
	p.wg.Done()
}

// Grow spawns up to n new workers on the given NUMA domain (-1 = follow
// the pool's original PinSpec round-robin). It returns how many were
// actually spawned: zero once the pool has sealed (the stage drained —
// growing then would spin workers on a closed queue) or when MaxWorkers
// is reached. Safe to call concurrently with a live run.
func (p *Pool) Grow(n, domain int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sealed || n <= 0 {
		return 0
	}
	grown := 0
	for i := 0; i < n; i++ {
		if p.cfg.MaxWorkers > 0 && len(p.workers)-p.retiring >= p.cfg.MaxWorkers {
			break
		}
		dom, cpus := p.placementLocked(domain)
		p.spawnLocked(dom, cpus, p.body)
		grown++
	}
	return grown
}

// placementLocked resolves a Grow target domain to (domain, CPU set).
func (p *Pool) placementLocked(domain int) (int, []int) {
	if domain < 0 {
		i := p.nextID
		return p.cfg.Pin.DomainFor(i), p.cfg.Pin.CPUsFor(i)
	}
	if node, ok := p.cfg.Topo.Node(domain); ok {
		return domain, node.CPUs
	}
	// Unknown domain in this topology: land unpinned but keep the label
	// so bufpool leases still shard sensibly.
	return domain, nil
}

// Shrink asks up to n workers to retire, preferring the given domain
// (-1 = any). Retirement is lazy: each marked worker finishes its
// current chunk and exits at the next chunk boundary (a worker parked
// on an empty queue retires at its next wakeup or when the queue
// closes). The pool never shrinks below MinWorkers active workers, and
// never double-marks a worker. Returns how many workers were marked.
func (p *Pool) Shrink(n, domain int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		return 0
	}
	// Candidates: live, not already retiring, matching domain. Retire
	// newest-first so the initial cohort (whose PinSpec placement the
	// config chose deliberately) survives longest.
	var ids []int
	for id, w := range p.workers {
		if w.retired {
			continue
		}
		if domain >= 0 && w.domain != domain {
			continue
		}
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	active := len(p.workers) - p.retiring
	marked := 0
	for _, id := range ids {
		if marked >= n || active-marked <= p.cfg.MinWorkers {
			break
		}
		w := p.workers[id]
		w.retired = true
		p.retiring++
		if p.domains[w.domain] > 0 {
			p.domains[w.domain]--
		}
		close(w.retire)
		marked++
	}
	return marked
}

// Live returns the number of workers currently running (including ones
// marked to retire that have not yet reached a chunk boundary).
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Active returns the target worker count: live workers minus those
// marked to retire. This is the number the controller reasons about.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers) - p.retiring
}

// DomainWorkers returns the target per-domain worker counts.
func (p *Pool) DomainWorkers() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]int, len(p.domains))
	for d, n := range p.domains {
		if n > 0 {
			out[d] = n
		}
	}
	return out
}

// Sealed reports whether the pool has fully drained (no worker will
// ever run again; Grow refuses).
func (p *Pool) Sealed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sealed
}

// Wait blocks until all workers return and joins their errors.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return errors.Join(p.errs...)
}

// PinFailures reports how many workers could not be pinned.
func (p *Pool) PinFailures() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pinFails
}

// Pinned returns how many live workers own a pinned OS thread — the
// workers whose CPU set constrains them. Zero on a host whose only NUMA
// domain is the whole machine, whatever the config says.
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pinned
}

// Name returns the pool's stage name.
func (p *Pool) Name() string { return p.name }
