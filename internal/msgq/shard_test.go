package msgq

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// delivery with a payload naming its shard and ordinal, for direct
// shardedInbox tests.
func shardDelivery(shard, n int) Delivery {
	return Delivery{Msg: Message{[]byte{byte(shard)}, []byte(fmt.Sprintf("%d", n))}}
}

func TestShardedInboxIsolatesFullShard(t *testing.T) {
	si := newShardedInbox(2, 2, nil)
	// Fill shard 0 to capacity; no consumer is draining it.
	for i := 0; i < 2; i++ {
		if err := si.put(0, shardDelivery(0, i)); err != nil {
			t.Fatalf("put shard 0: %v", err)
		}
	}
	// Shard 1 must accept and serve frames while shard 0 stays full —
	// the head-of-line isolation the sharding exists for.
	done := make(chan error, 1)
	go func() { done <- si.put(1, shardDelivery(1, 0)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("put shard 1: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put to shard 1 blocked behind full shard 0")
	}
	cur := NewShardCursor(0)
	d, err := si.get(cur)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if d.Msg[0][0] != 1 {
		t.Fatalf("cursor at offset 0 should advance to backlogged shard 1, got shard %d", d.Msg[0][0])
	}
	if si.depth(0) != 2 {
		t.Fatalf("shard 0 depth = %d, want 2 (untouched)", si.depth(0))
	}
}

func TestShardedInboxWRRNeverStarves(t *testing.T) {
	si := newShardedInbox(2, 64, nil)
	for i := 0; i < 32; i++ {
		si.put(0, shardDelivery(0, i)) // deep shard
	}
	for i := 0; i < 4; i++ {
		si.put(1, shardDelivery(1, i)) // shallow shard
	}
	cur := NewShardCursor(1) // cursor parked on shard 1: next scan starts at 0
	run := 0
	last := -1
	for n := 0; n < 36; n++ {
		d, err := si.get(cur)
		if err != nil {
			t.Fatalf("get %d: %v", n, err)
		}
		s := int(d.Msg[0][0])
		if s == last {
			run++
		} else {
			run, last = 1, s
		}
		// While both shards are backlogged, no shard may be served more
		// than a quantum in a row.
		if si.depth(0) > 0 && si.depth(1) > 0 && run > wrrQuantum {
			t.Fatalf("shard %d served %d times in a row with the other backlogged", s, run)
		}
	}
	if si.depth(0) != 0 || si.depth(1) != 0 {
		t.Fatalf("residue after draining: %d/%d", si.depth(0), si.depth(1))
	}
}

func TestShardedInboxCloseDrains(t *testing.T) {
	si := newShardedInbox(3, 8, nil)
	for i := 0; i < 5; i++ {
		si.put(i%3, shardDelivery(i%3, i))
	}
	si.close()
	if err := si.put(0, shardDelivery(0, 9)); err != ErrClosed {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
	cur := NewShardCursor(0)
	for i := 0; i < 5; i++ {
		if _, err := si.get(cur); err != nil {
			t.Fatalf("drain get %d: %v", i, err)
		}
	}
	if _, err := si.get(cur); err != ErrClosed {
		t.Fatalf("get after drain: %v, want ErrClosed", err)
	}
}

// TestPullShardedDispatch runs the full transport path: pushers over
// TCP, a dispatch function routing on the first payload byte (and
// dropping a marked stream), two workers draining with their own
// cursors.
func TestPullShardedDispatch(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const dropMark = 0xff
	var dropped sync.WaitGroup
	pull.SetDispatch(4, 16, func(d *Delivery) (int, bool) {
		if d.Msg[0][0] == dropMark {
			dropped.Done()
			return 0, false
		}
		return int(d.Msg[0][0]) % 4, true
	})

	push := NewPush()
	defer push.Close()
	push.Connect(pull.Addr().String())

	const msgs = 64
	dropped.Add(1)
	for i := 0; i < msgs; i++ {
		if err := push.Send(Message{[]byte{byte(i % 8)}, []byte(fmt.Sprintf("payload-%d", i))}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := push.Send(Message{[]byte{dropMark}, []byte("dropped")}); err != nil {
		t.Fatal(err)
	}
	// One more after the drop proves the read loop keeps going.
	if err := push.Send(Message{[]byte{3}, []byte("after-drop")}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	got := 0
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := NewShardCursor(w)
			for {
				d, err := pull.RecvSharded(cur)
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if d.Msg[0][0] == dropMark {
					t.Errorf("dropped frame reached a worker")
				}
				mu.Lock()
				got++
				mu.Unlock()
			}
		}(w)
	}
	dropped.Wait() // the marked frame passed through dispatch
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n >= msgs+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", n, msgs+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pull.Close()
	wg.Wait()
	if got != msgs+1 {
		t.Fatalf("received %d messages, want %d", got, msgs+1)
	}
}

// TestSetDispatchTakesOverLiveConnection: the Pull has one inbox, so a
// peer that connected and sent before SetDispatch neither loses its
// queued frames (they move to shard 0 in arrival order, even past the new
// ring depth) nor keeps feeding a pre-dispatch queue — its next frame is
// classified. Recv drains the sharded inbox like any cursor.
func TestSetDispatchTakesOverLiveConnection(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	push := NewPush()
	defer push.Close()
	push.Connect(pull.Addr().String())

	waitDepth := func(shard, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for pull.ShardDepth(shard) != want {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d depth = %d, want %d", shard, pull.ShardDepth(shard), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	const early, late = 3, 2
	for i := 0; i < early; i++ {
		if err := push.Send(Message{[]byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitDepth(0, early)

	var classified sync.WaitGroup
	classified.Add(late)
	pull.SetDispatch(2, early-1, func(d *Delivery) (int, bool) {
		classified.Done()
		return 1, true
	})
	waitDepth(0, early)
	for i := early; i < early+late; i++ {
		if err := push.Send(Message{[]byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	classified.Wait()
	waitDepth(1, late)

	seen := make(map[byte]bool)
	last := -1
	for i := 0; i < early+late; i++ {
		msg, err := pull.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		id := msg[0][0]
		seen[id] = true
		if id < early { // the carried-over frames keep their order
			if int(id) < last {
				t.Fatalf("pre-dispatch frame %d after frame %d", id, last)
			}
			last = int(id)
		}
	}
	if len(seen) != early+late {
		t.Fatalf("received %d distinct frames, want %d", len(seen), early+late)
	}
}

// TestSetDispatchWakesParkedPut: a read loop parked on the full
// pre-dispatch ring must notice that the reconfigured ring has room, not
// wait for a consumer to drain a ring that is no longer full.
func TestSetDispatchWakesParkedPut(t *testing.T) {
	si := newShardedInbox(1, 2, nil)
	for i := 0; i < 2; i++ {
		if err := si.put(0, Delivery{}); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan error, 1)
	go func() { parked <- si.put(0, Delivery{}) }()
	time.Sleep(20 * time.Millisecond) // let it reach notFull.Wait
	si.configure(1, 8, func(*Delivery) (int, bool) { return 0, true })
	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("parked put: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put parked on the old full ring never woke after configure")
	}
	if got := si.depth(0); got != 3 {
		t.Fatalf("shard 0 depth = %d, want 3", got)
	}
}
