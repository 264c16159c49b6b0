// Package queue provides bounded, thread-safe queues used between the
// stages of the streaming pipeline (the "thread-safe queue" of the paper's
// Figure 2). The queues support multiple concurrent producers and
// consumers, blocking operations, close semantics with drain, and
// occupancy statistics used by the metrics subsystem.
package queue

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a queue that has been closed and,
// for consumers, fully drained.
var ErrClosed = errors.New("queue: closed")

// Queue is a bounded multi-producer multi-consumer FIFO queue.
//
// A Queue must be created with New; the zero value is not usable. All
// methods are safe for concurrent use. After Close, Put fails immediately
// with ErrClosed while Get continues to succeed until the queue is empty,
// so in-flight items are never lost.
type Queue[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	buf    []T
	head   int
	count  int
	closed bool

	// statistics, guarded by mu
	puts       uint64
	gets       uint64
	maxDepth   int
	putBlocks  uint64
	getBlocks  uint64
	putBlocked time.Duration
	getBlocked time.Duration

	// In-progress wait accounting: how many callers are blocked right
	// now, and the sum of their block-start times (unix nanos). A
	// Stats() taken mid-wait charges each waiter now-start, so
	// blocked-time gauges move while a stall is happening — the live
	// signal bottleneck attribution needs — instead of only after the
	// waiter finally unblocks.
	putWaiters      int
	getWaiters      int
	putWaitStartSum int64
	getWaitStartSum int64
}

// New returns an empty queue with the given capacity. Capacity must be at
// least 1; New panics otherwise, since an unbuffered MPMC queue cannot
// provide the pipelining the runtime depends on.
func New[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		panic("queue: capacity must be >= 1")
	}
	q := &Queue[T]{buf: make([]T, capacity)}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// Len returns the current number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Put appends v, blocking while the queue is full. It returns ErrClosed if
// the queue is closed before v could be enqueued.
func (q *Queue[T]) Put(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	// Blocked-time accounting stays off the fast path: the clock is read
	// only when this call actually waits.
	if q.count == len(q.buf) && !q.closed {
		blockedAt := time.Now()
		q.putBlocks++
		q.putWaiters++
		q.putWaitStartSum += blockedAt.UnixNano()
		for q.count == len(q.buf) && !q.closed {
			q.notFull.Wait()
		}
		q.putWaiters--
		q.putWaitStartSum -= blockedAt.UnixNano()
		q.putBlocked += time.Since(blockedAt)
	}
	if q.closed {
		return ErrClosed
	}
	q.enqueueLocked(v)
	return nil
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. It returns ErrClosed once the queue is closed and drained.
func (q *Queue[T]) Get() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 && !q.closed {
		blockedAt := time.Now()
		q.getBlocks++
		q.getWaiters++
		q.getWaitStartSum += blockedAt.UnixNano()
		for q.count == 0 && !q.closed {
			q.notEmpty.Wait()
		}
		q.getWaiters--
		q.getWaitStartSum -= blockedAt.UnixNano()
		q.getBlocked += time.Since(blockedAt)
	}
	var zero T
	if q.count == 0 {
		return zero, ErrClosed
	}
	return q.dequeueLocked(), nil
}

// Close marks the queue closed. Pending and future Puts fail with
// ErrClosed; Gets drain remaining items and then fail with ErrClosed.
// Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// Stats is a snapshot of queue activity counters. The blocked durations
// include waits still in progress at snapshot time, so a stalled
// pipeline's backpressure is visible while it is stalling.
type Stats struct {
	Puts       uint64        // total successful enqueues
	Gets       uint64        // total successful dequeues
	MaxDepth   int           // high-water mark of occupancy
	PutBlocks  uint64        // Put calls that had to wait (backpressure events)
	GetBlocks  uint64        // Get calls that had to wait (starvation events)
	PutBlocked time.Duration // cumulative time Put callers spent waiting (incl. in progress)
	GetBlocked time.Duration // cumulative time Get callers spent waiting (incl. in progress)
	PutWaiters int           // Put callers blocked right now
	GetWaiters int           // Get callers blocked right now
	Depth      int           // current occupancy
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Puts:       q.puts,
		Gets:       q.gets,
		MaxDepth:   q.maxDepth,
		PutBlocks:  q.putBlocks,
		GetBlocks:  q.getBlocks,
		PutBlocked: q.putBlocked,
		GetBlocked: q.getBlocked,
		PutWaiters: q.putWaiters,
		GetWaiters: q.getWaiters,
		Depth:      q.count,
	}
	// The clock is read only when someone is actually waiting, keeping
	// the idle-scrape path as cheap as before.
	if q.putWaiters > 0 || q.getWaiters > 0 {
		now := time.Now().UnixNano()
		if q.putWaiters > 0 {
			st.PutBlocked += time.Duration(now*int64(q.putWaiters) - q.putWaitStartSum)
		}
		if q.getWaiters > 0 {
			st.GetBlocked += time.Duration(now*int64(q.getWaiters) - q.getWaitStartSum)
		}
	}
	return st
}

func (q *Queue[T]) enqueueLocked(v T) {
	tail := (q.head + q.count) % len(q.buf)
	q.buf[tail] = v
	q.count++
	q.puts++
	if q.count > q.maxDepth {
		q.maxDepth = q.count
	}
	q.notEmpty.Signal()
}

func (q *Queue[T]) dequeueLocked() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release reference for GC
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.gets++
	q.notFull.Signal()
	return v
}
