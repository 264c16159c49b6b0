package queue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestFIFOOrder(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 8; i++ {
		if err := q.Put(i); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := 0; i < 8; i++ {
		v, err := q.Get()
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if v != i {
			t.Fatalf("Get = %d, want %d", v, i)
		}
	}
}

func TestLenAndCap(t *testing.T) {
	q := New[string](4)
	if len(q.buf) != 4 {
		t.Fatalf("capacity = %d, want 4", len(q.buf))
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	q.Get()
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestPutBlocksUntilGet(t *testing.T) {
	q := New[int](1)
	q.Put(1)
	done := make(chan error, 1)
	go func() { done <- q.Put(2) }()
	select {
	case <-done:
		t.Fatal("Put on full queue returned before space was available")
	case <-time.After(10 * time.Millisecond):
	}
	if v, err := q.Get(); err != nil || v != 1 {
		t.Fatalf("Get = (%d, %v)", v, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked Put: %v", err)
	}
	if v, err := q.Get(); err != nil || v != 2 {
		t.Fatalf("Get = (%d, %v)", v, err)
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	q := New[int](1)
	got := make(chan int, 1)
	go func() {
		v, err := q.Get()
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Get on empty queue returned before an item was available")
	case <-time.After(10 * time.Millisecond):
	}
	q.Put(42)
	if v := <-got; v != 42 {
		t.Fatalf("Get = %d, want 42", v)
	}
}

func TestCloseUnblocksPut(t *testing.T) {
	q := New[int](1)
	q.Put(1)
	done := make(chan error, 1)
	go func() { done <- q.Put(2) }()
	time.Sleep(5 * time.Millisecond)
	q.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("blocked Put after Close = %v, want ErrClosed", err)
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	q := New[int](4)
	q.Put(1)
	q.Put(2)
	q.Close()
	if v, err := q.Get(); err != nil || v != 1 {
		t.Fatalf("Get after Close = (%d, %v), want (1, nil)", v, err)
	}
	if v, err := q.Get(); err != nil || v != 2 {
		t.Fatalf("Get after Close = (%d, %v), want (2, nil)", v, err)
	}
	if _, err := q.Get(); err != ErrClosed {
		t.Fatalf("Get on drained closed queue = %v, want ErrClosed", err)
	}
}

func TestPutAfterClose(t *testing.T) {
	q := New[int](4)
	q.Close()
	if err := q.Put(1); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	q := New[int](1)
	q.Close()
	q.Close()
	if !q.closed {
		t.Fatal("Closed = false after Close")
	}
}

func TestStats(t *testing.T) {
	q := New[int](2)
	q.Put(1)
	q.Put(2)
	q.Get()
	s := q.Stats()
	if s.Puts != 2 || s.Gets != 1 || s.MaxDepth != 2 || s.Depth != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestStatsCountBlocks(t *testing.T) {
	q := New[int](1)
	q.Put(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.Put(2)
	}()
	time.Sleep(5 * time.Millisecond)
	q.Get()
	wg.Wait()
	if s := q.Stats(); s.PutBlocks == 0 {
		t.Fatalf("PutBlocks = 0, want > 0 (stats %+v)", s)
	}
}

// TestConcurrentProducersConsumers hammers the queue with many producers
// and consumers and checks that every item is delivered exactly once.
func TestConcurrentProducersConsumers(t *testing.T) {
	const (
		producers    = 8
		consumers    = 8
		perProducer  = 1000
		totalItems   = producers * perProducer
		queueCapacty = 16
	)
	q := New[int](queueCapacty)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Put(p*perProducer + i); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(p)
	}
	var mu sync.Mutex
	seen := make(map[int]bool, totalItems)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, err := q.Get()
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("item %d delivered twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.Close()
	cwg.Wait()
	if len(seen) != totalItems {
		t.Fatalf("delivered %d items, want %d", len(seen), totalItems)
	}
}

// TestPropertyDrainMatchesFill uses testing/quick to verify that any
// sequence of puts drains in the same order.
func TestPropertyDrainMatchesFill(t *testing.T) {
	f := func(items []uint32) bool {
		q := New[uint32](len(items) + 1)
		for _, v := range items {
			if err := q.Put(v); err != nil {
				return false
			}
		}
		q.Close()
		for _, want := range items {
			got, err := q.Get()
			if err != nil || got != want {
				return false
			}
		}
		_, err := q.Get()
		return err == ErrClosed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWraparound checks FIFO order is preserved across many
// wrap-arounds of the ring buffer for arbitrary small capacities.
func TestPropertyWraparound(t *testing.T) {
	f := func(capSeed uint8, n uint16) bool {
		capacity := int(capSeed)%7 + 1
		q := New[int](capacity)
		next := 0
		for i := 0; i < int(n)%2000; i++ {
			if err := q.Put(i); err != nil {
				return false
			}
			if q.Len() == capacity || i%3 == 0 {
				v, err := q.Get()
				if err != nil || v != next {
					return false
				}
				next++
			}
		}
		for q.Len() > 0 {
			v, err := q.Get()
			if err != nil || v != next {
				return false
			}
			next++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsBlockedTime(t *testing.T) {
	q := New[int](1)
	if err := q.Put(1); err != nil {
		t.Fatal(err)
	}

	// A producer blocks on the full queue until we drain it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := q.Put(2); err != nil {
			t.Errorf("blocked Put: %v", err)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	<-done

	// Drain, then a consumer blocks on the empty queue.
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		if _, err := q.Get(); err != nil {
			t.Errorf("blocked Get: %v", err)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := q.Put(3); err != nil {
		t.Fatal(err)
	}
	<-done

	st := q.Stats()
	if st.PutBlocks < 1 || st.GetBlocks < 1 {
		t.Fatalf("blocks = %d/%d, want >= 1 each", st.PutBlocks, st.GetBlocks)
	}
	// Generous lower bound: the waiters slept ~50ms; scheduling noise
	// only adds to the measured wait.
	if st.PutBlocked < 30*time.Millisecond {
		t.Fatalf("PutBlocked = %v, want >= 30ms", st.PutBlocked)
	}
	if st.GetBlocked < 30*time.Millisecond {
		t.Fatalf("GetBlocked = %v, want >= 30ms", st.GetBlocked)
	}
}

func TestStatsNoBlockedTimeOnFastPath(t *testing.T) {
	q := New[int](4)
	for i := 0; i < 3; i++ {
		if err := q.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Get(); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	if st.PutBlocks != 0 || st.GetBlocks != 0 || st.PutBlocked != 0 || st.GetBlocked != 0 {
		t.Fatalf("uncontended queue reports blocking: %+v", st)
	}
}

// TestStatsMidBlockVisibility pins the in-progress accounting: a stall
// is visible in Stats *while* the waiter is still parked, not only
// after it wakes — which is what lets a snapshot-diff observer call a
// wedged pipeline blocked instead of idle.
func TestStatsMidBlockVisibility(t *testing.T) {
	q := New[int](1)
	if err := q.Put(1); err != nil {
		t.Fatal(err)
	}
	go q.Put(2) // parks: queue full
	waitFor := func(cond func(Stats) bool, what string) Stats {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if st := q.Stats(); cond(st) {
				return st
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s (stats %+v)", what, q.Stats())
		return Stats{}
	}
	st := waitFor(func(st Stats) bool { return st.PutWaiters == 1 }, "a parked producer")
	time.Sleep(20 * time.Millisecond)
	st2 := q.Stats()
	if st2.PutBlocked <= st.PutBlocked {
		t.Fatalf("mid-block PutBlocked did not grow: %v then %v", st.PutBlocked, st2.PutBlocked)
	}
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	waitFor(func(st Stats) bool { return st.PutWaiters == 0 }, "the producer to unpark")

	// Same shape for a starved consumer.
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		q.Get()
		close(got)
	}()
	st = waitFor(func(st Stats) bool { return st.GetWaiters == 1 }, "a parked consumer")
	time.Sleep(20 * time.Millisecond)
	if st2 := q.Stats(); st2.GetBlocked <= st.GetBlocked {
		t.Fatalf("mid-block GetBlocked did not grow: %v then %v", st.GetBlocked, st2.GetBlocked)
	}
	if err := q.Put(3); err != nil {
		t.Fatal(err)
	}
	<-got
	if st := q.Stats(); st.GetWaiters != 0 || st.PutWaiters != 0 {
		t.Fatalf("waiters linger: %+v", st)
	}
}
