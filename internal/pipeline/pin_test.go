package pipeline

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"numastream/internal/numa"
)

// A worker owns an OS thread only when its CPU set constrains it. These
// tests read the two things that rule decides — the thread's affinity
// mask and whether the goroutine is locked to its thread — from inside
// worker bodies, for a set that covers the host, one that narrows it and
// one that names no CPU of it.

// allowedOrSkip returns the CPUs this process may run on.
func allowedOrSkip(t *testing.T) []int {
	t.Helper()
	allowed, err := numa.Allowed()
	if err != nil {
		t.Skipf("no thread affinity here: %v", err)
	}
	return allowed
}

// disjointFrom returns two CPU ids above every allowed one.
func disjointFrom(allowed []int) []int {
	top := allowed[len(allowed)-1]
	return []int{top + 1, top + 2}
}

// lockedToThread reports whether the calling goroutine is locked to its
// OS thread, as the runtime's own stack header states it.
func lockedToThread() bool {
	buf := make([]byte, 256)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		buf = buf[:i]
	}
	return bytes.Contains(buf, []byte("locked to thread"))
}

// seen is what one worker observed about itself.
type seen struct {
	domain   int
	locked   bool
	affinity []int
}

// observingPool starts a pool whose workers report what they see and
// then park until stop closes (or they are retired).
func observingPool(cfg PoolConfig, stop chan struct{}) (*Pool, func(n int) []seen) {
	var mu sync.Mutex
	var got []seen
	arrived := make(chan struct{}, 1024) // one token per worker ever spawned; the storm stays far below
	p := StartPool(cfg, func(w *Worker) error {
		aff, _ := numa.Allowed()
		mu.Lock()
		got = append(got, seen{domain: w.Domain(), locked: lockedToThread(), affinity: aff})
		mu.Unlock()
		arrived <- struct{}{}
		select {
		case <-w.retire:
		case <-stop:
		}
		return nil
	})
	// wait blocks until n more workers have reported, then returns all
	// reports so far.
	wait := func(n int) []seen {
		for i := 0; i < n; i++ {
			<-arrived
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]seen(nil), got...)
	}
	return p, wait
}

// TestPinRule: the initial cohort of a pool, for each kind of CPU set.
func TestPinRule(t *testing.T) {
	allowed := allowedOrSkip(t)
	one := allowed[len(allowed)-1:]
	for _, tc := range []struct {
		name     string
		cpus     []int
		locked   bool
		affinity []int
		pinned   int
		fails    int
	}{
		{name: "whole-host", cpus: allowed, affinity: allowed},
		{name: "one-cpu", cpus: one, locked: true, affinity: one, pinned: 3},
		{name: "disjoint", cpus: disjointFrom(allowed), affinity: allowed, fails: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.locked && len(allowed) < 2 {
				t.Skip("one allowed CPU: no set can constrain")
			}
			stop := make(chan struct{})
			p, wait := observingPool(PoolConfig{
				Name: tc.name, Workers: 3,
				Pin: PinSpec{CPUSets: [][]int{tc.cpus}, Domains: []int{4}},
			}, stop)
			for _, s := range wait(3) {
				if s.locked != tc.locked {
					t.Errorf("worker with CPU set %v: locked to a thread = %v, want %v", tc.cpus, s.locked, tc.locked)
				}
				if !reflect.DeepEqual(s.affinity, tc.affinity) {
					t.Errorf("worker thread affinity = %v, want %v (process: %v)", s.affinity, tc.affinity, allowed)
				}
				if s.domain != 4 {
					t.Errorf("Worker.Domain() = %d, want 4", s.domain)
				}
			}
			if n := p.Pinned(); n != tc.pinned {
				t.Errorf("Pinned() = %d, want %d", n, tc.pinned)
			}
			if n := p.PinFailures(); n != tc.fails {
				t.Errorf("PinFailures() = %d, want %d", n, tc.fails)
			}
			close(stop)
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if n := p.Pinned(); n != 0 {
				t.Errorf("Pinned() = %d after the pool drained, want 0", n)
			}
			// A pinned thread ends with its worker: none rejoins the
			// scheduler narrowed, so ordinary goroutines see every CPU.
			var wg sync.WaitGroup
			for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if aff, _ := numa.Allowed(); !reflect.DeepEqual(aff, allowed) {
						t.Errorf("a goroutine after the pool sees affinity %v, want %v", aff, allowed)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// pinRuleTopo is a topology with one node per case: node 0 covers the
// host, node 1 is its last CPU alone, node 2 is CPUs it does not have.
func pinRuleTopo(allowed []int) numa.HostTopology {
	return numa.HostTopology{Nodes: []numa.Node{
		{ID: 0, CPUs: allowed},
		{ID: 1, CPUs: allowed[len(allowed)-1:]},
		{ID: 2, CPUs: disjointFrom(allowed)},
	}}
}

// TestPoolGrowFollowsPinRule: a worker grown onto a domain is locked and
// pinned, or neither, by the same rule as the initial cohort.
func TestPoolGrowFollowsPinRule(t *testing.T) {
	allowed := allowedOrSkip(t)
	if len(allowed) < 2 {
		t.Skip("one allowed CPU: no set can constrain")
	}
	topo := pinRuleTopo(allowed)
	stop := make(chan struct{})
	p, wait := observingPool(PoolConfig{Name: "grow", Workers: 1, Topo: topo}, stop)
	wait(1)
	for dom := 0; dom <= 2; dom++ {
		if got := p.Grow(2, dom); got != 2 {
			t.Fatalf("Grow(2, %d) = %d", dom, got)
		}
	}
	byDomain := map[int][]seen{}
	for _, s := range wait(6)[1:] {
		byDomain[s.domain] = append(byDomain[s.domain], s)
	}
	for dom, want := range map[int]seen{
		0: {locked: false, affinity: allowed},
		1: {locked: true, affinity: topo.Nodes[1].CPUs},
		2: {locked: false, affinity: allowed},
	} {
		if len(byDomain[dom]) != 2 {
			t.Fatalf("domain %d has %d workers, want 2 (Worker.Domain() moved?)", dom, len(byDomain[dom]))
		}
		for _, s := range byDomain[dom] {
			if s.locked != want.locked || !reflect.DeepEqual(s.affinity, want.affinity) {
				t.Errorf("domain %d worker: locked %v affinity %v, want locked %v affinity %v",
					dom, s.locked, s.affinity, want.locked, want.affinity)
			}
		}
	}
	if p.Pinned() != 2 || p.PinFailures() != 2 {
		t.Errorf("Pinned() = %d, PinFailures() = %d, want 2 and 2", p.Pinned(), p.PinFailures())
	}
	// Retiring the pinned workers gives their count back.
	if got := p.Shrink(2, 1); got != 2 {
		t.Fatalf("Shrink(2, 1) = %d", got)
	}
	waitLive(t, p, 5)
	if n := p.Pinned(); n != 0 {
		t.Errorf("Pinned() = %d after retiring domain 1, want 0", n)
	}
	close(stop)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPinRuleStorm: random Grow/Shrink across the three kinds of
// domain while workers come and go (run under -race in `make race` and
// `make adapt-drill`). Every worker ever spawned must have seen the
// lock state and mask its domain's CPU set calls for, and the pool's
// counts must add up when the storm ends.
func TestPoolPinRuleStorm(t *testing.T) {
	allowed := allowedOrSkip(t)
	if len(allowed) < 2 {
		t.Skip("one allowed CPU: no set can constrain")
	}
	topo := pinRuleTopo(allowed)
	stop := make(chan struct{})
	p, wait := observingPool(PoolConfig{Name: "storm", Workers: 2, Topo: topo}, stop)
	rng := rand.New(rand.NewSource(17))
	spawned, failed := 2, 0
	for i := 0; i < 200; i++ {
		dom := rng.Intn(3)
		if rng.Intn(2) == 0 {
			// The storm caps itself at 12 active workers, as a controller
			// policy would.
			n := p.Grow(min(1+rng.Intn(2), 12-p.Active()), dom)
			spawned += n
			if dom == 2 {
				failed += n
			}
		} else {
			p.Shrink(1+rng.Intn(2), dom)
		}
	}
	for _, s := range wait(spawned) {
		want := seen{domain: s.domain, affinity: allowed}
		if s.domain == 1 {
			want.locked, want.affinity = true, topo.Nodes[1].CPUs
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("worker saw %+v, want %+v", s, want)
		}
	}
	if n := p.PinFailures(); n != failed {
		t.Errorf("PinFailures() = %d, want %d (one per worker grown onto the absent domain)", n, failed)
	}
	waitLive(t, p, p.Active())
	if got, want := p.Pinned(), p.DomainWorkers()[1]; got != want {
		t.Errorf("Pinned() = %d with %d workers on the one-CPU domain", got, want)
	}
	close(stop)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := p.Pinned(); n != 0 {
		t.Errorf("Pinned() = %d after the pool drained, want 0", n)
	}
}
