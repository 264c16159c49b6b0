// Package faults is the runtime's deliberate failure model. The paper's
// deployment streams beamline data over a real APS→ALCF WAN path where
// connection resets, stalls and bit corruption are routine operational
// events, so the robustness of the pipeline is part of any honest
// throughput claim. This package provides deterministic, seedable fault
// plans and applies them to both execution substrates:
//
//   - real mode: net.Conn / net.Listener wrappers (via an Injector) that
//     reset connections after N bytes or N writes, stall the write path,
//     flip a single payload bit, or refuse accepts for a window — driving
//     the reconnect, checksum and quarantine machinery in msgq/pipeline;
//   - simulator mode: a LinkSchedule of down intervals and capacity
//     degradation consumed by netsim.Link, fully deterministic under the
//     discrete-event engine.
//
// A plan with the same faults and seed replays identically: the only
// randomness is the Injector's seeded RNG (used when a corrupt fault
// does not pin its bit offset).
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// Kind selects the effect of a connection-level fault.
type Kind int

// Connection-level fault kinds.
const (
	// Reset closes the connection mid-write; the writer sees
	// ErrInjectedReset and the reader a truncated stream.
	Reset Kind = iota
	// Stall pauses the triggering write for Fault.Stall before letting
	// it proceed (a bufferbloat/oscillation event, not an error).
	Stall
	// Corrupt flips one bit of the triggering write's payload. Corrupt
	// waits for a write of at least CorruptMinLen bytes so it lands in
	// bulk payload rather than a tiny framing header.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
}

// CorruptMinLen is the smallest write a Corrupt fault fires on; shorter
// writes (length-prefix frames, chunk headers) defer it to the next
// payload-sized write so the flipped bit hits data, not framing.
const CorruptMinLen = 64

// injectedReset is the concrete type behind ErrInjectedReset. It is a
// zero-size comparable value so errors.Is against the sentinel works,
// and it implements net.Error so transports that classify failures via
// errors.As(err, &netErr) see a non-timeout peer failure.
type injectedReset struct{}

func (injectedReset) Error() string   { return "faults: injected connection reset" }
func (injectedReset) Timeout() bool   { return false }
func (injectedReset) Temporary() bool { return false }

// ErrInjectedReset is returned by writes on a connection an injector has
// reset. It satisfies net.Error (non-timeout) so transports treat it
// like any other peer failure.
var ErrInjectedReset net.Error = injectedReset{}

// Fault is one scheduled connection-level event. Triggers are cumulative
// across every connection the injector wraps, so a plan keeps its place
// across redials: AfterWrites counts completed Write calls (when > 0),
// otherwise AfterBytes counts total bytes offered to Write. Each fault
// fires exactly once.
type Fault struct {
	Kind        Kind
	AfterBytes  int64         // fire once cumulative bytes reach this (AfterWrites == 0)
	AfterWrites int64         // fire on this cumulative Write ordinal (1-based) when > 0
	Stall       time.Duration // Stall: pause length
	Bit         int64         // Corrupt: bit index within the triggering write; < 0 = seeded random
}

// AcceptWindow marks accepted-connection ordinals [From, To) (0-based)
// that a wrapped listener refuses — it accepts and immediately closes
// them, which is what a listener restart looks like to a dialing peer.
type AcceptWindow struct {
	From, To int64
}

// Plan is a deterministic fault schedule for one endpoint.
type Plan struct {
	// Seed drives the injector's RNG (unpinned corrupt-bit offsets).
	Seed int64
	// Faults are connection-level events, evaluated and fired in
	// declared order; at most one fires per write, and a Corrupt fault
	// deferred by CorruptMinLen holds back the faults scheduled after it
	// until it fires.
	Faults []Fault
	// Refuse are listener restart windows.
	Refuse []AcceptWindow
}

// Stats counts the faults an injector has actually delivered.
type Stats struct {
	Resets         int64
	Stalls         int64
	Corruptions    int64
	RefusedAccepts int64
}

// Injector applies a Plan to connections and listeners. One injector
// tracks cumulative progress across every connection it wraps (so a
// fault plan spans redials); wrap independent endpoints with independent
// injectors. All methods are safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	plan    Plan
	rng     *rand.Rand
	fired   []bool
	bytes   int64
	writes  int64
	accepts int64
	stats   Stats
}

// NewInjector returns an injector for the plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		fired: make([]bool, len(plan.Faults)),
	}
}

// Stats returns the faults delivered so far.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Conn wraps c so the plan's connection faults apply to its writes.
func (in *Injector) Conn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, in: in}
}

// Listener wraps ln: refuse windows apply to accepts, and every accepted
// connection is wrapped with the plan's connection faults.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, in: in}
}

// Dialer wraps a dial function (nil = plain TCP) so every connection it
// establishes carries the plan — the hook shape msgq.Push.Dial expects.
func (in *Injector) Dialer(base func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if base == nil {
		base = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		c, err := base(addr)
		if err != nil {
			return nil, err
		}
		return in.Conn(c), nil
	}
}

type action struct {
	kind  Kind
	fire  bool
	stall time.Duration
	bit   int64
}

// beforeWrite advances the cumulative counters by one n-byte write and
// returns the fault (if any) that fires on it.
func (in *Injector) beforeWrite(n int) action {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writes++
	in.bytes += int64(n)
	for i, f := range in.plan.Faults {
		if in.fired[i] {
			continue
		}
		if f.AfterWrites > 0 {
			if in.writes < f.AfterWrites {
				continue
			}
		} else if in.bytes < f.AfterBytes {
			continue
		}
		if f.Kind == Corrupt && n < CorruptMinLen {
			// Defer to the next payload-sized write — and stop scanning,
			// so a later-scheduled fault cannot fire ahead of this one:
			// plan faults always execute in their declared order.
			break
		}
		in.fired[i] = true
		switch f.Kind {
		case Reset:
			in.stats.Resets++
			return action{kind: Reset, fire: true}
		case Stall:
			in.stats.Stalls++
			return action{kind: Stall, fire: true, stall: f.Stall}
		case Corrupt:
			bit := f.Bit
			if bit < 0 {
				bit = in.rng.Int63()
			}
			in.stats.Corruptions++
			return action{kind: Corrupt, fire: true, bit: bit % (int64(n) * 8)}
		}
	}
	return action{}
}

// refuseAccept reports whether the next accepted connection falls in a
// refuse window.
func (in *Injector) refuseAccept() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	ord := in.accepts
	in.accepts++
	for _, w := range in.plan.Refuse {
		if ord >= w.From && ord < w.To {
			in.stats.RefusedAccepts++
			return true
		}
	}
	return false
}

type faultConn struct {
	net.Conn
	in *Injector
}

func (c *faultConn) Write(b []byte) (int, error) {
	act := c.in.beforeWrite(len(b))
	if !act.fire {
		return c.Conn.Write(b)
	}
	switch act.kind {
	case Reset:
		c.Conn.Close()
		return 0, ErrInjectedReset
	case Stall:
		time.Sleep(act.stall)
		return c.Conn.Write(b)
	case Corrupt:
		tainted := make([]byte, len(b))
		copy(tainted, b)
		tainted[act.bit/8] ^= 1 << uint(act.bit%8)
		return c.Conn.Write(tainted)
	}
	return c.Conn.Write(b)
}

type faultListener struct {
	net.Listener
	in *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.in.refuseAccept() {
			conn.Close()
			continue
		}
		return l.in.Conn(conn), nil
	}
}

// ---------------------------------------------------------------------
// Simulator-side faults: virtual-time link schedules.

// LinkWindow is one fault interval on a simulated link: during
// [Start, End) the link serves at Capacity times its nominal bandwidth
// (0 = hard outage).
type LinkWindow struct {
	Start, End float64
	Capacity   float64
}

// LinkSchedule is a set of link fault windows. Normalize before use.
type LinkSchedule []LinkWindow

// Normalize sorts the windows and rejects overlapping, inverted or
// out-of-range entries, returning the schedule for chaining.
func (s LinkSchedule) Normalize() (LinkSchedule, error) {
	out := append(LinkSchedule(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	for i, w := range out {
		if w.End <= w.Start {
			return nil, fmt.Errorf("faults: link window %d is empty or inverted [%g, %g)", i, w.Start, w.End)
		}
		if w.Capacity < 0 || w.Capacity > 1 {
			return nil, fmt.Errorf("faults: link window %d capacity %g outside [0, 1]", i, w.Capacity)
		}
		if i > 0 && w.Start < out[i-1].End {
			return nil, fmt.Errorf("faults: link windows %d and %d overlap", i-1, i)
		}
	}
	return out, nil
}

// Stretch maps a nominal service interval starting at `start` and
// needing `d` seconds at full capacity onto the faulted timeline,
// returning the completion time: outage windows contribute no service,
// degraded windows serve at their reduced rate. The schedule must be
// normalized (sorted, non-overlapping).
func (s LinkSchedule) Stretch(start, d float64) float64 {
	t := start
	remaining := d
	for _, w := range s {
		if remaining <= 0 {
			break
		}
		if w.End <= t {
			continue
		}
		if w.Start > t {
			// Full-rate segment before the window.
			seg := math.Min(remaining, w.Start-t)
			t += seg
			remaining -= seg
			if remaining <= 0 {
				break
			}
		}
		if t >= w.Start && t < w.End {
			if w.Capacity <= 0 {
				t = w.End // outage: no service until the window ends
				continue
			}
			span := (w.End - t) * w.Capacity // service the window can still provide
			if span >= remaining {
				t += remaining / w.Capacity
				remaining = 0
				break
			}
			remaining -= span
			t = w.End
		}
	}
	return t + remaining
}
