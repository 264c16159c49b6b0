package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %v, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if e.Now() < 5 {
			e.After(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEngineRejectsPastEvents(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestServerSerialService(t *testing.T) {
	s := NewServer("core", 2) // 2 units/sec
	if done := s.Acquire(0, 4); done != 2 {
		t.Fatalf("first acquire done at %v, want 2", done)
	}
	// Second request at t=1 queues behind the first.
	if done := s.Acquire(1, 2); done != 3 {
		t.Fatalf("queued acquire done at %v, want 3", done)
	}
	// Request after idle gap starts immediately.
	if done := s.Acquire(10, 2); done != 11 {
		t.Fatalf("post-idle acquire done at %v, want 11", done)
	}
	if s.Served() != 8 {
		t.Fatalf("Served = %v, want 8", s.Served())
	}
	if s.BusySeconds() != 4 {
		t.Fatalf("BusySeconds = %v, want 4", s.BusySeconds())
	}
}

func TestServerSaturatedThroughputEqualsCapacity(t *testing.T) {
	// Many concurrent clients pushing work through one server must see
	// aggregate throughput equal to capacity.
	s := NewServer("link", 100)
	var last float64
	total := 0.0
	for i := 0; i < 50; i++ {
		last = s.Acquire(0, 10)
		total += 10
	}
	if got := total / last; math.Abs(got-100) > 1e-9 {
		t.Fatalf("aggregate rate = %v, want 100", got)
	}
}

func TestServerUtilization(t *testing.T) {
	s := NewServer("mc", 10)
	s.Acquire(0, 50) // 5 seconds busy
	if u := s.Utilization(10); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if u := s.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", u)
	}
	if u := s.Utilization(1); u != 1 {
		t.Fatalf("Utilization clamp = %v, want 1", u)
	}
}

func TestServerPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer(0) did not panic")
		}
	}()
	NewServer("bad", 0)
}

func TestQueueDirectHandoff(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 4)
	var got any
	q.Get(func(item any, ok bool) {
		if !ok {
			t.Error("Get failed")
		}
		got = item
	})
	putDone := false
	q.Put("chunk", func(ok bool) { putDone = ok })
	e.Run()
	if got != "chunk" || !putDone {
		t.Fatalf("got = %v, putDone = %v", got, putDone)
	}
}

func TestQueueBackpressure(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 1)
	q.Put(1, nil)
	secondAccepted := false
	q.Put(2, func(ok bool) { secondAccepted = ok })
	e.Run()
	if secondAccepted {
		t.Fatal("second Put accepted despite full queue")
	}
	var items []any
	q.Get(func(item any, ok bool) { items = append(items, item) })
	q.Get(func(item any, ok bool) { items = append(items, item) })
	e.Run()
	if !secondAccepted {
		t.Fatal("blocked Put never accepted after Get")
	}
	if len(items) != 2 || items[0] != 1 || items[1] != 2 {
		t.Fatalf("items = %v", items)
	}
}

func TestQueueFIFOThroughBlockedProducers(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 1)
	for i := 0; i < 5; i++ {
		q.Put(i, nil)
	}
	var items []any
	for i := 0; i < 5; i++ {
		q.Get(func(item any, ok bool) {
			if ok {
				items = append(items, item)
			}
		})
	}
	e.Run()
	if len(items) != 5 {
		t.Fatalf("drained %d items, want 5", len(items))
	}
	for i, v := range items {
		if v != i {
			t.Fatalf("items out of order: %v", items)
		}
	}
}

func TestQueueCloseFailsPendingPuts(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 1)
	q.Put(1, nil)
	var blockedResult *bool
	q.Put(2, func(ok bool) { blockedResult = &ok })
	q.Close()
	e.Run()
	if blockedResult == nil || *blockedResult {
		t.Fatalf("blocked put after close: %v", blockedResult)
	}
	// The already-queued item must still drain.
	var got any
	ok := false
	q.Get(func(item any, k bool) { got, ok = item, k })
	e.Run()
	if !ok || got != 1 {
		t.Fatalf("drain after close = (%v, %v)", got, ok)
	}
	// Then consumers see closed.
	closedSeen := false
	q.Get(func(item any, k bool) { closedSeen = !k })
	e.Run()
	if !closedSeen {
		t.Fatal("Get on drained closed queue did not report closure")
	}
}

func TestQueueCloseWakesWaitingGetters(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 1)
	woken := false
	q.Get(func(item any, ok bool) { woken = !ok })
	q.Close()
	e.Run()
	if !woken {
		t.Fatal("waiting getter not woken by Close")
	}
}

func TestQueuePutAfterClose(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 1)
	q.Close()
	accepted := true
	q.Put(1, func(ok bool) { accepted = ok })
	e.Run()
	if accepted {
		t.Fatal("Put after Close accepted")
	}
	if !q.closed {
		t.Fatal("closed = false after Close")
	}
}

// TestQueueStats: two puts and a get on a roomy queue leave it two deep,
// then one deep, in FIFO order, and no operation waited.
func TestQueueStats(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 4)
	q.Put(1, nil)
	q.Put(2, nil)
	peak := q.Len()
	var got any
	q.Get(func(item any, _ bool) { got = item })
	e.Run()
	if peak != 2 || q.Len() != 1 || got != 1 {
		t.Fatalf("stats: peak=%d len=%d first=%v, want 2, 1, 1", peak, q.Len(), got)
	}
	if q.PutBlockedSecs() != 0 || q.GetBlockedSecs() != 0 {
		t.Fatalf("blocked put/get = %v/%v s, want 0: nothing waited", q.PutBlockedSecs(), q.GetBlockedSecs())
	}
}

// TestPipelineThroughputBottleneck wires a two-stage producer/consumer in
// virtual time and checks the end-to-end rate equals the slower stage —
// the foundational property every experiment relies on.
func TestPipelineThroughputBottleneck(t *testing.T) {
	e := NewEngine()
	fast := NewServer("fast", 100) // units/sec
	slow := NewServer("slow", 40)
	q := NewQueue(e, 4)
	const n = 200
	const unit = 1.0

	produced := 0
	var produce func()
	produce = func() {
		if produced == n {
			q.Close()
			return
		}
		produced++
		done := fast.Acquire(e.Now(), unit)
		e.Schedule(done, func() {
			q.Put(unit, func(ok bool) {
				if ok {
					produce()
				}
			})
		})
	}

	consumed := 0
	var finish float64
	var consume func()
	consume = func() {
		q.Get(func(item any, ok bool) {
			if !ok {
				return
			}
			done := slow.Acquire(e.Now(), item.(float64))
			e.Schedule(done, func() {
				consumed++
				finish = e.Now()
				consume()
			})
		})
	}

	e.After(0, produce)
	e.After(0, consume)
	e.Run()

	if consumed != n {
		t.Fatalf("consumed %d, want %d", consumed, n)
	}
	rate := float64(n) * unit / finish
	if math.Abs(rate-40)/40 > 0.05 {
		t.Fatalf("pipeline rate = %v, want ~40 (slow stage)", rate)
	}
}

// TestPropertyServerNeverOverlapsWork checks the FIFO invariant: for any
// request sequence with nondecreasing arrival times, completions are
// nondecreasing and total busy time equals total work / rate.
func TestPropertyServerNeverOverlapsWork(t *testing.T) {
	f := func(gaps []uint8, sizes []uint8) bool {
		s := NewServer("s", 3)
		now := 0.0
		last := 0.0
		totalWork := 0.0
		n := len(gaps)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			now += float64(gaps[i]) / 10
			amt := float64(sizes[i]) / 10
			totalWork += amt
			done := s.Acquire(now, amt)
			if done < last-1e-12 {
				return false
			}
			if done < now-1e-12 {
				return false
			}
			last = done
		}
		return math.Abs(s.BusySeconds()-totalWork/3) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQueueConservation: every item put is eventually got exactly
// once, regardless of interleaving, when producers and consumers are
// balanced.
func TestPropertyQueueConservation(t *testing.T) {
	f := func(nSeed, capSeed uint8) bool {
		e := NewEngine()
		n := int(nSeed)%50 + 1
		q := NewQueue(e, int(capSeed)%8+1)
		var got []any
		for i := 0; i < n; i++ {
			i := i
			e.After(float64(i%7)/10, func() { q.Put(i, nil) })
			e.After(float64((i*3)%5)/10, func() {
				q.Get(func(item any, ok bool) {
					if ok {
						got = append(got, item)
					}
				})
			})
		}
		e.Run()
		if len(got) != n {
			return false
		}
		seen := make(map[any]bool)
		for _, v := range got {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBlockedVirtualTime pins the virtual-clock blocked-seconds
// accounting: a producer parked on a full queue accrues put-blocked
// time until a consumer admits it, a consumer parked on an empty queue
// accrues get-blocked time until a producer hands off, and mid-wait
// state is visible through the accessors before the handoff resolves.
func TestQueueBlockedVirtualTime(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 1)

	// Fill, then park a producer at t=1; drain at t=4 → 3 virtual
	// seconds of put-block.
	e.Schedule(0, func() { q.Put("a", func(ok bool) {}) })
	putDone := math.NaN()
	e.Schedule(1, func() {
		q.Put("b", func(ok bool) { putDone = e.Now() })
	})
	earlyPut, midPut := 0.0, 0.0
	e.Schedule(2, func() { earlyPut = q.PutBlockedSecs() })
	e.Schedule(3, func() { midPut = q.PutBlockedSecs() })
	e.Schedule(4, func() { q.Get(func(item any, ok bool) {}) })
	e.Run()
	if putDone != 4 {
		t.Fatalf("blocked Put resolved at t=%v, want 4", putDone)
	}
	if midPut != 2 {
		t.Fatalf("mid-wait PutBlockedSecs = %v, want 2 (parked t=1..3)", midPut)
	}
	if got := q.PutBlockedSecs(); got != 3 {
		t.Fatalf("PutBlockedSecs = %v, want 3", got)
	}
	if midPut-earlyPut != 1 {
		t.Fatalf("PutBlockedSecs grew %v over t=2..3, want 1: one producer parked", midPut-earlyPut)
	}

	// Drain the admitted item, park a consumer at t=5, hand off at t=9
	// → 4 virtual seconds of get-block.
	e2 := NewEngine()
	q2 := NewQueue(e2, 1)
	getDone := math.NaN()
	e2.Schedule(5, func() {
		q2.Get(func(item any, ok bool) { getDone = e2.Now() })
	})
	earlyGet, midGet := 0.0, 0.0
	e2.Schedule(6, func() { earlyGet = q2.GetBlockedSecs() })
	e2.Schedule(7, func() { midGet = q2.GetBlockedSecs() })
	e2.Schedule(9, func() { q2.Put("c", func(ok bool) {}) })
	e2.Run()
	if getDone != 9 {
		t.Fatalf("blocked Get resolved at t=%v, want 9", getDone)
	}
	if midGet != 2 {
		t.Fatalf("mid-wait GetBlockedSecs = %v, want 2 (parked t=5..7)", midGet)
	}
	if got := q2.GetBlockedSecs(); got != 4 {
		t.Fatalf("GetBlockedSecs = %v, want 4", got)
	}
	if midGet-earlyGet != 1 {
		t.Fatalf("GetBlockedSecs grew %v over t=6..7, want 1: one consumer parked", midGet-earlyGet)
	}
}

// TestQueueCloseSettlesBlockedTime: Close flushes parked producers and
// consumers, and their waits accrue up to the close instant.
func TestQueueCloseSettlesBlockedTime(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, 1)
	e.Schedule(0, func() { q.Put("a", func(ok bool) {}) })
	e.Schedule(1, func() { q.Put("b", func(ok bool) {}) }) // parks
	e.Schedule(6, func() { q.Close() })
	e.Run()
	if got := q.PutBlockedSecs(); got != 5 {
		t.Fatalf("PutBlockedSecs after Close = %v, want 5", got)
	}

	e2 := NewEngine()
	q2 := NewQueue(e2, 1)
	e2.Schedule(2, func() { q2.Get(func(item any, ok bool) {}) }) // parks
	e2.Schedule(5, func() { q2.Close() })
	e2.Run()
	if got := q2.GetBlockedSecs(); got != 3 {
		t.Fatalf("GetBlockedSecs after Close = %v, want 3", got)
	}
}
