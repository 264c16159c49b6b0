// Package bufpool provides size-classed, NUMA-domain-sharded buffer
// pools for the streaming hot path. The paper's throughput ceiling is
// set by memory-controller and LLC pressure (Obs. 3: split-domain
// decompression wins precisely because it relieves memory-controller
// contention), so the runtime must not compound that pressure with
// allocator and GC traffic of its own: at 100 Gbps a pipeline that
// allocates a fresh buffer per chunk per stage churns several GB/s of
// garbage through the very memory controllers it is trying to keep
// clear. This package recycles chunk-sized buffers instead.
//
// Layout: one shard set per NUMA domain, each holding one sync.Pool per
// power-of-two size class (512 B … 64 MiB, matching msgq.MaxPartSize).
// A worker pinned to domain d calls Get(d, n) and receives a buffer
// whose pages — by Linux first-touch — live on d after its first use,
// so recycled buffers stay local to the domain that streams through
// them. A Get that misses its own domain steals from another before
// allocating (counted separately: steady steal traffic means a
// producer/consumer domain imbalance worth fixing in the placement
// config).
//
// Buffers are leased as *Buf handles. The handle carries the buffer's
// home domain and size class, enforces the lease discipline (a double
// Put panics — returning one buffer to two renters is silent data
// corruption later), and powers the leak accounting: Outstanding()
// reports buffers currently leased, and reaches zero when a pipeline
// has drained cleanly.
//
// A nil *Pool is valid and means "no pooling": Get falls back to a
// plain allocation and Put is a no-op. msgq's Pull reads frames through
// a nil pool until its owner hands it one (Pull.SetBufferPool), so a
// pool-less Pull shares the pooled read path's call sites.
package bufpool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"numastream/internal/metrics"
	"numastream/internal/numa"
)

// Size-class bounds. The smallest class still comfortably holds a frame
// header part; the largest equals msgq.MaxPartSize, so every legal wire
// part fits a class.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 26 // 64 MiB
	// MinClassSize is the smallest pooled buffer capacity.
	MinClassSize = 1 << minClassBits
	// MaxClassSize is the largest pooled buffer capacity; larger Gets
	// are satisfied with one-off allocations and never pooled.
	MaxClassSize = 1 << maxClassBits

	numClasses = maxClassBits - minClassBits + 1
)

// classOf returns the size-class index for a request of n bytes.
func classOf(n int) int {
	if n <= MinClassSize {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// classSize returns the buffer capacity of class c.
func classSize(c int) int { return 1 << (minClassBits + c) }

// Buf is one leased buffer. The handle travels with the buffer through
// the pipeline (e.g. as a Chunk field) so whichever stage finishes with
// the bytes can return them without knowing where they were rented.
type Buf struct {
	pool *Pool  // nil for disabled-mode buffers
	data []byte // full class-sized backing
	n    int    // requested length, Bytes() view
	home int32  // domain whose shard owns the backing (first touch)
	cls  int32  // size class, -1 for oversize one-offs
	// leased guards the lease discipline: 1 while rented. Put trips on
	// a CAS failure, which is how double-put (the aliasing bug class)
	// surfaces as a panic at the faulty call site instead of as data
	// corruption two stages later.
	leased atomic.Bool
}

// Bytes returns the leased view: length as requested (or as set by
// SetLen), capacity the full size class.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Len returns the current view length.
func (b *Buf) Len() int { return b.n }

// Cap returns the backing capacity.
func (b *Buf) Cap() int { return cap(b.data) }

// Domain returns the buffer's home NUMA domain.
func (b *Buf) Domain() int { return int(b.home) }

// SetLen shrinks (or regrows, up to Cap) the view returned by Bytes —
// the compress stage rents a CompressBound-sized buffer and then clips
// it to the block length actually produced.
func (b *Buf) SetLen(n int) {
	if n < 0 || n > cap(b.data) {
		panic(fmt.Sprintf("bufpool: SetLen(%d) outside [0, %d]", n, cap(b.data)))
	}
	b.n = n
}

// Release returns the buffer to its owning pool (equivalent to
// pool.Put(b)). On a disabled-mode buffer it is a no-op.
func (b *Buf) Release() {
	if b == nil || b.pool == nil {
		return
	}
	b.pool.put(b)
}

// Pool is a set of per-domain, size-classed buffer shards. Methods are
// safe for concurrent use, and safe on a nil receiver (pooling
// disabled: Get allocates, Put discards).
type Pool struct {
	shards []shardSet

	hits     atomic.Int64 // Get served from the caller's own domain shard
	misses   atomic.Int64 // Get that allocated a fresh buffer
	steals   atomic.Int64 // Get served from another domain's shard
	oversize atomic.Int64 // Gets beyond MaxClassSize (never pooled)

	outstanding atomic.Int64 // leased buffers, pool-wide
	perDomain   []atomic.Int64
}

type shardSet struct {
	classes [numClasses]sync.Pool
}

// New returns a pool with one shard set per NUMA domain. Domains < 1 is
// treated as 1 (single-domain host, or tests).
func New(domains int) *Pool {
	if domains < 1 {
		domains = 1
	}
	return &Pool{
		shards:    make([]shardSet, domains),
		perDomain: make([]atomic.Int64, domains),
	}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool, sized to the host's discovered
// NUMA topology on first use. The pipeline uses it whenever the caller
// does not supply an explicit pool.
func Default() *Pool {
	defaultOnce.Do(func() {
		topo, _ := numa.Discover()
		defaultPool = New(len(topo.Nodes))
	})
	return defaultPool
}

// Domains returns the number of domain shards.
func (p *Pool) Domains() int {
	if p == nil {
		return 0
	}
	return len(p.shards)
}

// Get leases a buffer of length n, preferring the given domain's shard.
// Out-of-range domains clamp to 0, so callers whose placement mode has
// no domain notion (OS baseline) need no special casing. On a nil pool
// Get degrades to make([]byte, n) wrapped in an unpooled handle.
func (p *Pool) Get(domain, n int) *Buf {
	if n < 0 {
		panic(fmt.Sprintf("bufpool: Get of %d bytes", n))
	}
	if p == nil {
		return &Buf{data: make([]byte, n), n: n, cls: -1}
	}
	if domain < 0 || domain >= len(p.shards) {
		domain = 0
	}
	if n > MaxClassSize {
		// Never pooled: lease accounting still applies so leaks of
		// giant buffers show up too.
		p.oversize.Add(1)
		b := &Buf{pool: p, data: make([]byte, n), n: n, home: int32(domain), cls: -1}
		b.leased.Store(true)
		p.outstanding.Add(1)
		p.perDomain[domain].Add(1)
		return b
	}
	cls := classOf(n)
	var b *Buf
	if v := p.shards[domain].classes[cls].Get(); v != nil {
		b = v.(*Buf)
		p.hits.Add(1)
	} else {
		// Cross-domain steal before allocating: a remote-domain buffer
		// costs remote traffic while in use, but a fresh allocation
		// costs allocator + GC + page-fault traffic on top.
		for d := range p.shards {
			if d == domain {
				continue
			}
			if v := p.shards[d].classes[cls].Get(); v != nil {
				b = v.(*Buf)
				p.steals.Add(1)
				break
			}
		}
	}
	if b == nil {
		p.misses.Add(1)
		// First touch happens in the renting worker, so the pages land
		// on (and the buffer is homed to) the renter's domain.
		b = &Buf{pool: p, data: make([]byte, classSize(cls)), home: int32(domain), cls: int32(cls)}
	}
	b.n = n
	if !b.leased.CompareAndSwap(false, true) {
		panic("bufpool: pooled buffer was already leased (double Get?)")
	}
	p.outstanding.Add(1)
	p.perDomain[b.home].Add(1)
	return b
}

// Put returns a leased buffer to its owning pool's home-domain shard.
// Put of a nil or disabled-mode buffer is a no-op; Put of a buffer that
// is not currently leased panics (double put — the precursor of two
// renters aliasing one buffer). The receiver is advisory: the buffer
// always returns to the pool that issued it.
func (p *Pool) Put(b *Buf) {
	if b == nil || b.pool == nil {
		return
	}
	b.pool.put(b)
}

func (p *Pool) put(b *Buf) {
	if !b.leased.CompareAndSwap(true, false) {
		panic("bufpool: double Put of one buffer")
	}
	p.outstanding.Add(-1)
	p.perDomain[b.home].Add(-1)
	if b.cls < 0 {
		return // oversize one-off: dropped to the GC
	}
	p.shards[b.home].classes[b.cls].Put(b)
}

// Outstanding reports the number of currently leased buffers — the leak
// accounting. A cleanly drained pipeline leaves it at zero. (An aborted
// pipeline may strand leases: the buffers are garbage-collected
// normally, only the gauge remembers them.)
func (p *Pool) Outstanding() int64 {
	if p == nil {
		return 0
	}
	return p.outstanding.Load()
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	Hits        int64 // own-domain pool hits
	Misses      int64 // fresh allocations
	Steals      int64 // cross-domain hits
	Oversize    int64 // beyond-MaxClassSize one-offs
	Outstanding int64 // currently leased
	// OutstandingByDomain breaks Outstanding down by home domain.
	OutstandingByDomain []int64
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	s := Stats{
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Steals:      p.steals.Load(),
		Oversize:    p.oversize.Load(),
		Outstanding: p.outstanding.Load(),
	}
	for i := range p.perDomain {
		s.OutstandingByDomain = append(s.OutstandingByDomain, p.perDomain[i].Load())
	}
	return s
}

// Metric names registered by Register (exposed at /metrics via the
// telemetry server like every other registry series).
const (
	GaugeHits        = "bufpool_hits"
	GaugeMisses      = "bufpool_misses"
	GaugeSteals      = "bufpool_steals"
	GaugeOversize    = "bufpool_oversize"
	GaugeOutstanding = "bufpool_outstanding"
)

// Register installs callback gauges for the pool's counters into reg:
// hit/miss/steal/oversize totals, the outstanding-lease gauge, and one
// bufpool_outstanding_domain_<d> gauge per domain shard. Re-registering
// (several pipeline runs sharing one registry and the default pool) is
// harmless — the callback is simply replaced.
func (p *Pool) Register(reg *metrics.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.RegisterGauge(GaugeHits, func() float64 { return float64(p.hits.Load()) })
	reg.RegisterGauge(GaugeMisses, func() float64 { return float64(p.misses.Load()) })
	reg.RegisterGauge(GaugeSteals, func() float64 { return float64(p.steals.Load()) })
	reg.RegisterGauge(GaugeOversize, func() float64 { return float64(p.oversize.Load()) })
	reg.RegisterGauge(GaugeOutstanding, func() float64 { return float64(p.outstanding.Load()) })
	for d := range p.perDomain {
		d := d
		reg.RegisterGauge(fmt.Sprintf("%s_domain_%d", GaugeOutstanding, d),
			func() float64 { return float64(p.perDomain[d].Load()) })
	}
}
