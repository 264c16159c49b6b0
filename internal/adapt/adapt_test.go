package adapt

import (
	"fmt"
	"math"
	"testing"

	"numastream/internal/obs"
)

// fakeAct is an in-memory actuator with per-stage caps, recording every
// call so tests can assert the exact mutation order.
type fakeAct struct {
	workers map[string]int
	domains map[string]map[int]int
	max     map[string]int
	calls   []string
}

func newFakeAct() *fakeAct {
	return &fakeAct{
		workers: map[string]int{},
		domains: map[string]map[int]int{},
		max:     map[string]int{},
	}
}

func (f *fakeAct) set(stage string, perDomain map[int]int) {
	total := 0
	doms := map[int]int{}
	for d, n := range perDomain {
		doms[d] = n
		total += n
	}
	f.workers[stage] = total
	f.domains[stage] = doms
}

func (f *fakeAct) Workers(stage string) int { return f.workers[stage] }

func (f *fakeAct) DomainWorkers(stage string) map[int]int {
	out := map[int]int{}
	for d, n := range f.domains[stage] {
		out[d] = n
	}
	return out
}

func (f *fakeAct) Grow(stage string, n, domain int) int {
	if max := f.max[stage]; max > 0 && f.workers[stage]+n > max {
		n = max - f.workers[stage]
	}
	if n <= 0 {
		return 0
	}
	f.workers[stage] += n
	if f.domains[stage] == nil {
		f.domains[stage] = map[int]int{}
	}
	f.domains[stage][domain] += n
	f.calls = append(f.calls, fmt.Sprintf("grow %s %d @%d", stage, n, domain))
	return n
}

func (f *fakeAct) Shrink(stage string, n, domain int) int {
	have := f.domains[stage][domain]
	if domain < 0 {
		have = f.workers[stage]
	}
	if n > have {
		n = have
	}
	if n <= 0 {
		return 0
	}
	f.workers[stage] -= n
	if domain >= 0 {
		f.domains[stage][domain] -= n
	}
	f.calls = append(f.calls, fmt.Sprintf("shrink %s %d @%d", stage, n, domain))
	return n
}

// win builds the one-second window ending at t1 the way a node does —
// obs.Diff over two snapshots in which a MiB was delivered and each
// named series grew from 0 to its value — so it carries the verdict and
// limiter obs's classifier gives those signals.
func win(t1 float64, gauges map[string]float64, counters map[string]int64) obs.Window {
	prev := obs.Snapshot{T: t1 - 1, Gauges: map[string]float64{}}
	for g := range gauges {
		prev.Gauges[g] = 0
	}
	cur := obs.Snapshot{T: t1, Gauges: gauges, Counters: counters,
		Meters: map[string]obs.MeterState{"delivered": {Bytes: 1 << 20, Items: 1}}}
	return obs.Diff(prev, cur, nil)
}

// jam is the gauges of queues whose producers were blocked share
// seconds in a one-second window.
func jam(shares map[string]float64) map[string]float64 {
	g := map[string]float64{}
	for q, share := range shares {
		g[q+"_depth"] = 1
		g[q+"_put_blocked_secs"] = share
	}
	return g
}

// jammed is the window ending at t1 in which queue's producers were
// blocked share seconds.
func jammed(t1 float64, queue string, share float64) obs.Window {
	return win(t1, jam(map[string]float64{queue: share}), nil)
}

// poolStarved is a window in which 40 of 60 buffer rentals missed the
// local free list.
func poolStarved() obs.Window {
	return win(1, map[string]float64{"bufpool_hits": 20, "bufpool_misses": 40}, nil)
}

func testPolicy() Policy {
	return Policy{
		Hysteresis: 3,
		Cooldown:   5,
		MaxStep:    2,
		ActFloor:   0.35,
		MaxWorkers: map[string]int{"compress": 8},
		Domains:    []int{0, 1},
		NICDomain:  1,
	}
}

// TestHysteresisGate: two consistent windows are not enough at
// Hysteresis 3; the third acts.
func TestHysteresisGate(t *testing.T) {
	act := newFakeAct()
	act.set("compress", map[int]int{0: 1})
	c := New(testPolicy(), act)

	c.OnWindow(jammed(1, "compq", 0.9))
	c.OnWindow(jammed(2, "compq", 0.9))
	if n := len(c.Actions()); n != 0 {
		t.Fatalf("acted after %d windows with Hysteresis 3: %d actions", 2, n)
	}
	c.OnWindow(jammed(3, "compq", 0.9))
	got := c.Actions()
	if len(got) != 1 {
		t.Fatalf("want 1 action after the third consistent window, got %d", len(got))
	}
	a := got[0]
	if a.Op != OpGrow || a.Stage != "compress" || a.N != 2 {
		t.Fatalf("action = %s, want grow compress 2", a.String())
	}
	if a.Domain != 1 {
		t.Fatalf("grow landed on dom%d, want the least-loaded domain 1", a.Domain)
	}
	if a.Workers != 3 {
		t.Fatalf("post-action workers = %d, want 3", a.Workers)
	}
}

// TestFlipFlopNeverActs: verdicts alternating every window never build
// a streak, so the controller stays silent no matter how long it runs.
func TestFlipFlopNeverActs(t *testing.T) {
	act := newFakeAct()
	act.set("compress", map[int]int{0: 1})
	act.set("decompress", map[int]int{0: 1})
	pol := testPolicy()
	pol.Hysteresis = 2
	c := New(pol, act)

	for i := 0; i < 50; i++ {
		q := "compq" // compress-bound
		if i%2 == 1 {
			q = "decq" // consumer-bound
		}
		c.OnWindow(jammed(float64(i+1), q, 0.9))
	}
	if n := len(c.Actions()); n != 0 {
		t.Fatalf("flip-flopping verdicts produced %d actions, want 0:\n%s", n, FormatActions(c.Actions()))
	}
}

// TestCooldownGate: after an action the controller must wait out the
// cooldown on the window clock even while the verdict streak persists.
func TestCooldownGate(t *testing.T) {
	act := newFakeAct()
	act.set("compress", map[int]int{0: 1})
	pol := testPolicy()
	pol.Hysteresis = 1
	pol.Cooldown = 5
	c := New(pol, act)

	c.OnWindow(jammed(1, "compq", 0.9)) // acts
	for t1 := 2.0; t1 < 6; t1++ {
		c.OnWindow(jammed(t1, "compq", 0.9))
	}
	if n := len(c.Actions()); n != 1 {
		t.Fatalf("acted %d times inside the cooldown, want 1:\n%s", n, FormatActions(c.Actions()))
	}
	c.OnWindow(jammed(6.5, "compq", 0.9)) // cooldown over
	if n := len(c.Actions()); n != 2 {
		t.Fatalf("want a second action once the cooldown elapses, got %d", n)
	}
}

// TestMaxStepAndCap: steps never exceed MaxStep, and the MaxWorkers cap
// clips the last step; once at the cap the controller logs nothing.
func TestMaxStepAndCap(t *testing.T) {
	act := newFakeAct()
	act.set("compress", map[int]int{0: 1})
	act.max["compress"] = 4
	pol := testPolicy()
	pol.Hysteresis = 1
	pol.Cooldown = 0.5
	pol.MaxWorkers = map[string]int{"compress": 4}
	c := New(pol, act)

	for t1 := 1.0; t1 <= 10; t1++ {
		c.OnWindow(jammed(t1, "compq", 0.9))
	}
	got := c.Actions()
	if len(got) != 2 {
		t.Fatalf("want exactly 2 actions (1->3->4, then capped silence), got %d:\n%s", len(got), FormatActions(got))
	}
	for _, a := range got {
		if a.N > pol.MaxStep {
			t.Fatalf("action moved %d workers, MaxStep is %d: %s", a.N, pol.MaxStep, a.String())
		}
	}
	if got[1].N != 1 || got[1].Workers != 4 {
		t.Fatalf("second action = %s, want the cap-clipped grow to 4", got[1].String())
	}
	if act.workers["compress"] != 4 {
		t.Fatalf("compress ended at %d workers, cap is 4", act.workers["compress"])
	}
}

// TestDoNothingBand: an actionable verdict whose blocked share sits
// below ActFloor decides nothing.
func TestDoNothingBand(t *testing.T) {
	v := View{
		Workers: map[string]int{"compress": 1},
		Domains: map[string]map[int]int{"compress": {0: 1}},
	}
	w := jammed(1, "compq", 0.2) // classifier floor is 0.25; ActFloor 0.35
	if w.Verdict != obs.VerdictCompressBound {
		t.Fatalf("verdict = %s, want compress-bound", w.Verdict)
	}
	if steps := Decide(testPolicy(), w, v); len(steps) != 0 {
		t.Fatalf("share 0.2 < ActFloor produced steps: %+v", steps)
	}
	// churn-degraded is never a placement problem.
	churn := win(1, jam(map[string]float64{"compq": 0.9}), map[string]int64{"reroutes": 3})
	if churn.Verdict != obs.VerdictChurnDegraded {
		t.Fatalf("verdict = %s, want churn-degraded", churn.Verdict)
	}
	if steps := Decide(testPolicy(), churn, v); len(steps) != 0 {
		t.Fatalf("churn-degraded produced steps: %+v", steps)
	}
}

// TestDecideActsOnObsLimiter: Decide acts on the queue obs blamed and
// that queue's share, never on a queue of its own choosing. With decq
// blocked 0.30 s/s and recvq 0.9, obs blames decq (the most-downstream
// queue past its 0.25 floor), whose share sits inside the do-nothing
// band — so nothing happens, even though recvq is jammed harder. With
// decq under obs's floor, obs blames recvq and receive grows on the NIC
// domain.
func TestDecideActsOnObsLimiter(t *testing.T) {
	v := View{
		Workers: map[string]int{"receive": 2, "decompress": 2},
		Domains: map[string]map[int]int{"receive": {0: 2}, "decompress": {0: 2}},
	}
	w := win(1, jam(map[string]float64{"decq": 0.30, "recvq": 0.9}), nil)
	if want := (obs.Limiter{Name: "decq", Rule: obs.RuleBackpressure, Share: 0.30}); w.Verdict != obs.VerdictConsumerBound || w.Limiter != want {
		t.Fatalf("window = %s blaming %+v, want consumer-bound blaming %+v", w.Verdict, w.Limiter, want)
	}
	if steps := Decide(testPolicy(), w, v); len(steps) != 0 {
		t.Fatalf("decq 0.30 < ActFloor produced steps: %+v", steps)
	}
	w = win(1, jam(map[string]float64{"decq": 0.1, "recvq": 0.9}), nil)
	steps := Decide(testPolicy(), w, v)
	if len(steps) != 1 || steps[0].Op != OpGrow || steps[0].Stage != "receive" || steps[0].N != 2 || steps[0].Domain != 1 {
		t.Fatalf("recvq-blamed steps = %+v, want grow receive 2 on the NIC domain 1", steps)
	}
}

// TestWireBoundMigratesToNIC: wire-bound with send workers off the NIC
// domain grows on the NIC domain first, then retires at the source —
// and logs a single migrate action.
func TestWireBoundMigratesToNIC(t *testing.T) {
	act := newFakeAct()
	act.set("send", map[int]int{0: 4})
	pol := testPolicy()
	pol.Hysteresis = 1
	c := New(pol, act)

	c.OnWindow(jammed(1, "sendq", 0.8))
	got := c.Actions()
	if len(got) != 1 || got[0].Op != OpMigrate {
		t.Fatalf("want one migrate action, got:\n%s", FormatActions(got))
	}
	a := got[0]
	if a.Stage != "send" || a.N != 2 || a.From != 0 || a.Domain != 1 {
		t.Fatalf("migrate = %s, want send 2 dom0->dom1", a.String())
	}
	wantCalls := []string{"grow send 2 @1", "shrink send 2 @0"}
	if len(act.calls) != 2 || act.calls[0] != wantCalls[0] || act.calls[1] != wantCalls[1] {
		t.Fatalf("actuator calls = %v, want %v (grow target before retiring source)", act.calls, wantCalls)
	}
	if act.workers["send"] != 4 {
		t.Fatalf("migrate changed the send pool size: %d, want 4", act.workers["send"])
	}
	// The second window (past cooldown) moves the remaining pair; after
	// that everything sits on the NIC domain and the controller is done.
	c.OnWindow(jammed(10, "sendq", 0.8))
	if n := len(c.Actions()); n != 2 {
		t.Fatalf("want the remaining 2 workers migrated, got %d actions", n)
	}
	c.OnWindow(jammed(20, "sendq", 0.8))
	if n := len(c.Actions()); n != 2 {
		t.Fatalf("migrated again with all workers on the NIC domain: %d actions", n)
	}
	if act.domains["send"][1] != 4 || act.domains["send"][0] != 0 {
		t.Fatalf("send domains = %v, want all 4 on dom1", act.domains["send"])
	}
}

// TestPoolStarvedSplitsDecompress: a lopsided decompress pool under
// bufpool starvation splits across domains; a balanced one is left be.
func TestPoolStarvedSplitsDecompress(t *testing.T) {
	pol := testPolicy()
	lop := View{
		Workers: map[string]int{"decompress": 4},
		Domains: map[string]map[int]int{"decompress": {1: 4}},
	}
	steps := Decide(pol, poolStarved(), lop)
	if len(steps) != 1 || steps[0].Op != OpMigrate || steps[0].Stage != "decompress" {
		t.Fatalf("lopsided pool-starved steps = %+v, want one decompress migrate", steps)
	}
	if steps[0].N != 2 || steps[0].From != 1 || steps[0].Domain != 0 {
		t.Fatalf("split = %+v, want 2 workers dom1->dom0", steps[0])
	}
	bal := View{
		Workers: map[string]int{"decompress": 4},
		Domains: map[string]map[int]int{"decompress": {0: 2, 1: 2}},
	}
	if steps := Decide(pol, poolStarved(), bal); len(steps) != 0 {
		t.Fatalf("balanced pool-starved steps = %+v, want none", steps)
	}
}

// TestIdleShrinkGate: idle shrinks receive only when IdleShrink is on
// and the pool is above its floor.
func TestIdleShrinkGate(t *testing.T) {
	v := View{
		Workers: map[string]int{"receive": 3},
		Domains: map[string]map[int]int{"receive": {0: 3}},
	}
	pol := testPolicy()
	if steps := Decide(pol, win(1, nil, nil), v); len(steps) != 0 {
		t.Fatalf("idle acted with IdleShrink off: %+v", steps)
	}
	pol.IdleShrink = true
	steps := Decide(pol, win(1, nil, nil), v)
	if len(steps) != 1 || steps[0].Op != OpShrink || steps[0].Stage != "receive" || steps[0].N != 1 {
		t.Fatalf("idle steps = %+v, want shrink receive 1", steps)
	}
	pol.MinWorkers = map[string]int{"receive": 3}
	if steps := Decide(pol, win(1, nil, nil), v); len(steps) != 0 {
		t.Fatalf("idle shrank below MinWorkers: %+v", steps)
	}
}

// TestDecideOnRealDegenerateWindows feeds Decide the same degenerate
// diffs the obs engine produces (zero-width spans, counter resets) and
// requires total, panic-free, zero-step behavior.
func TestDecideOnRealDegenerateWindows(t *testing.T) {
	v := View{
		Workers: map[string]int{"compress": 1, "send": 4, "receive": 4, "decompress": 2},
		Domains: map[string]map[int]int{"compress": {0: 1}, "send": {0: 4}, "receive": {0: 4}, "decompress": {0: 2}},
	}
	// Zero-width span: two snapshots on the same stamp.
	s0 := obs.Snapshot{T: 5, Meters: map[string]obs.MeterState{"compress": {Bytes: 1000, Items: 1}},
		Gauges: map[string]float64{"compq_depth": 3, "compq_put_blocked_secs": 1}}
	s1 := obs.Snapshot{T: 5, Meters: map[string]obs.MeterState{"compress": {Bytes: 9000, Items: 9}},
		Gauges: map[string]float64{"compq_depth": 7, "compq_put_blocked_secs": 4}}
	zw := obs.Diff(s0, s1, nil)
	for _, verdict := range []obs.Verdict{obs.VerdictCompressBound, obs.VerdictWireBound, obs.VerdictConsumerBound} {
		zw.Verdict = verdict
		if steps := Decide(testPolicy(), zw, v); len(steps) != 0 {
			t.Fatalf("zero-width window (verdict forced %s) produced steps: %+v", verdict, steps)
		}
	}
	// Counter reset: every cumulative series younger than prev.
	p0 := obs.Snapshot{T: 10, Meters: map[string]obs.MeterState{"compress": {Bytes: 1 << 30, Items: 100}},
		Gauges: map[string]float64{"compq_put_blocked_secs": 50}}
	p1 := obs.Snapshot{T: 11, Meters: map[string]obs.MeterState{"compress": {Bytes: 4096, Items: 2}},
		Gauges: map[string]float64{"compq_put_blocked_secs": 0.1}}
	rw := obs.Diff(p0, p1, nil)
	rw.Verdict = obs.VerdictCompressBound
	for _, s := range Decide(testPolicy(), rw, v) {
		if s.N <= 0 {
			t.Fatalf("reset window produced a non-positive step: %+v", s)
		}
	}
}

// FuzzDecide hammers the decision function with arbitrary verdicts,
// limiters (including ones that disagree with the verdict), blocked
// shares (including NaN/Inf bit patterns), worker counts, and
// policy corners: it must never panic and every step must be positive
// and within MaxStep.
func FuzzDecide(f *testing.F) {
	f.Add(uint8(1), uint64(0x7FF8000000000000), 1, 4, int8(1), false) // NaN share
	f.Add(uint8(2), uint64(0x7FF0000000000000), 0, 0, int8(-1), true) // +Inf, empty pools
	f.Add(uint8(3), math.Float64bits(0.9), -3, 2, int8(0), false)     // negative workers
	f.Add(uint8(4), math.Float64bits(0.5), 100, -5, int8(9), true)    // out-of-range domains
	f.Add(uint8(9), math.Float64bits(0.35), 2, 2, int8(1), false)     // unknown verdict at the floor
	f.Fuzz(func(t *testing.T, vi uint8, shareBits uint64, workers, domWorkers int, nic int8, idle bool) {
		verdicts := []obs.Verdict{
			obs.VerdictIdle, obs.VerdictCompressBound,
			obs.VerdictWireBound, obs.VerdictConsumerBound, obs.VerdictPoolStarved,
			obs.VerdictChurnDegraded, obs.Verdict("mystery"),
		}
		share := math.Float64frombits(shareBits)
		queues := []string{"compq", "sendq", "decq", "recvq", "rxq", "compress", "bufpool", ""}
		w := obs.Window{T0: 0, T1: 0, Dur: 0, Verdict: verdicts[int(vi)%len(verdicts)],
			Limiter: obs.Limiter{Name: queues[int(vi)/len(verdicts)%len(queues)], Rule: obs.RuleBackpressure, Share: share}}
		for _, q := range queues[:5] {
			w.Queues = append(w.Queues, obs.QueueWindow{Queue: q, PutBlockedShare: share, GetBlockedShare: share})
		}
		pol := Policy{
			Hysteresis: 1, Cooldown: 0.1, MaxStep: 2, ActFloor: 0.35,
			MaxWorkers: map[string]int{"compress": 8, "decompress": 8, "receive": 4},
			Domains:    []int{0, 1},
			NICDomain:  int(nic),
			IdleShrink: idle,
		}
		v := View{
			Workers: map[string]int{"compress": workers, "send": workers, "receive": workers, "decompress": workers},
			Domains: map[string]map[int]int{
				"compress":   {0: domWorkers},
				"send":       {0: domWorkers, 1: workers},
				"receive":    {int(nic): domWorkers},
				"decompress": {1: domWorkers},
			},
		}
		steps := Decide(pol, w, v)
		for _, s := range steps {
			if s.N <= 0 || s.N > pol.MaxStep {
				t.Fatalf("step N=%d outside (0, %d]: %+v", s.N, pol.MaxStep, s)
			}
			if s.Stage == "" || s.Op == "" {
				t.Fatalf("anonymous step: %+v", s)
			}
		}
		// Nil-view totality.
		Decide(pol, w, View{})
	})
}
