package bufpool

import (
	"fmt"
	"sync"
	"testing"

	"numastream/internal/metrics"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		n, class, size int
	}{
		{0, 0, MinClassSize},
		{1, 0, MinClassSize},
		{512, 0, MinClassSize},
		{513, 1, 1024},
		{1024, 1, 1024},
		{1025, 2, 2048},
		{64 << 10, 7, 64 << 10},
		{(64 << 10) + 1, 8, 128 << 10},
		{1 << 20, 11, 1 << 20},
		{MaxClassSize, numClasses - 1, MaxClassSize},
	}
	for _, c := range cases {
		if got := classOf(c.n); got != c.class {
			t.Errorf("classOf(%d) = %d, want %d", c.n, got, c.class)
		}
		if got := classSize(c.class); got != c.size {
			t.Errorf("classSize(%d) = %d, want %d", c.class, got, c.size)
		}
		if c.n > 0 && classSize(classOf(c.n)) < c.n {
			t.Errorf("class of %d holds only %d bytes", c.n, classSize(classOf(c.n)))
		}
	}
}

func TestGetPutReuse(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool randomly drops Puts under -race; identity reuse is not guaranteed")
	}
	p := New(1)
	b := p.Get(0, 4096)
	if b.Len() != 4096 || b.Cap() != 4096 {
		t.Fatalf("Get(0, 4096): len %d cap %d", b.Len(), b.Cap())
	}
	ptr := &b.Bytes()[0]
	b.Release()
	// Single-threaded Get after Put should hand the same backing array
	// back (sync.Pool private slot).
	b2 := p.Get(0, 3000)
	if &b2.Bytes()[0] != ptr {
		t.Errorf("pool did not recycle the buffer")
	}
	if b2.Len() != 3000 || b2.Cap() != 4096 {
		t.Errorf("recycled lease: len %d cap %d, want 3000/4096", b2.Len(), b2.Cap())
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats after recycle: %+v, want 1 hit 1 miss", s)
	}
	b2.Release()
	if got := p.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %d after full drain", got)
	}
}

func TestSetLen(t *testing.T) {
	p := New(1)
	b := p.Get(0, 1000) // class 1024
	b.SetLen(700)
	if len(b.Bytes()) != 700 {
		t.Fatalf("after SetLen(700): len %d", len(b.Bytes()))
	}
	b.SetLen(1024) // up to Cap is fine
	if len(b.Bytes()) != 1024 {
		t.Fatalf("after SetLen(1024): len %d", len(b.Bytes()))
	}
	mustPanic(t, "SetLen beyond cap", func() { b.SetLen(1025) })
	mustPanic(t, "negative SetLen", func() { b.SetLen(-1) })
	b.Release()
}

func TestDoublePutPanics(t *testing.T) {
	p := New(2)
	b := p.Get(1, 100)
	b.Release()
	mustPanic(t, "double Put", func() { b.Release() })
}

func TestNilPoolDisabledMode(t *testing.T) {
	var p *Pool
	b := p.Get(3, 9000)
	if b.Len() != 9000 {
		t.Fatalf("nil-pool Get: len %d", b.Len())
	}
	// No-ops, any number of times.
	b.Release()
	b.Release()
	if p.Outstanding() != 0 {
		t.Errorf("nil pool reported state: outstanding %d", p.Outstanding())
	}
	if s := p.Stats(); s.Hits != 0 || s.Misses != 0 || s.Outstanding != 0 || s.OutstandingByDomain != nil {
		t.Errorf("nil pool stats: %+v", s)
	}
}

func TestOversize(t *testing.T) {
	p := New(1)
	b := p.Get(0, MaxClassSize+1)
	if b.Cap() != MaxClassSize+1 {
		t.Fatalf("oversize cap %d", b.Cap())
	}
	if p.Outstanding() != 1 {
		t.Fatalf("oversize not counted outstanding")
	}
	ptr := &b.Bytes()[0]
	b.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("oversize Put did not drain accounting")
	}
	// Oversize buffers are never pooled.
	b2 := p.Get(0, MaxClassSize+1)
	if &b2.Bytes()[0] == ptr {
		t.Errorf("oversize buffer was recycled; it must go to the GC")
	}
	b2.Release()
	if s := p.Stats(); s.Oversize != 2 {
		t.Errorf("oversize count = %d, want 2", s.Oversize)
	}
}

func TestCrossDomainSteal(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool randomly drops Puts under -race; identity reuse is not guaranteed")
	}
	p := New(2)
	// Seed domain 1's shard.
	b := p.Get(1, 2048)
	ptr := &b.Bytes()[0]
	b.Release()
	// Domain 0 misses its own shard and steals domain 1's buffer.
	b2 := p.Get(0, 2048)
	if &b2.Bytes()[0] != ptr {
		t.Fatalf("expected steal of domain 1's buffer")
	}
	if int(b2.home) != 1 {
		t.Errorf("stolen buffer home = %d, want 1 (home never changes)", int(b2.home))
	}
	s := p.Stats()
	if s.Steals != 1 {
		t.Errorf("steals = %d, want 1", s.Steals)
	}
	if s.OutstandingByDomain[1] != 1 || s.OutstandingByDomain[0] != 0 {
		t.Errorf("per-domain outstanding %v, want [0 1]", s.OutstandingByDomain)
	}
	b2.Release()
	// Returned to its HOME shard (domain 1), not the stealer's.
	b3 := p.Get(1, 2048)
	if &b3.Bytes()[0] != ptr {
		t.Errorf("stolen buffer did not return to its home shard")
	}
	b3.Release()
}

func TestDomainClamp(t *testing.T) {
	p := New(2)
	for _, d := range []int{-1, 2, 99} {
		b := p.Get(d, 64)
		if int(b.home) != 0 {
			t.Errorf("Get(domain=%d) homed to %d, want clamp to 0", d, int(b.home))
		}
		b.Release()
	}
}

func TestRegisterGauges(t *testing.T) {
	p := New(2)
	reg := metrics.NewRegistry()
	p.Register(reg)
	b := p.Get(1, 1024)
	gauges := gaugeMap(reg)
	if gauges[GaugeOutstanding] != 1 {
		t.Errorf("%s gauge = %v, want 1", GaugeOutstanding, gauges[GaugeOutstanding])
	}
	if gauges[GaugeMisses] != 1 {
		t.Errorf("%s gauge = %v, want 1", GaugeMisses, gauges[GaugeMisses])
	}
	if gauges[GaugeOutstanding+"_domain_1"] != 1 {
		t.Errorf("per-domain gauge = %v, want 1", gauges[GaugeOutstanding+"_domain_1"])
	}
	b.Release()
	// Re-registration (shared registry across pipeline runs) must not
	// panic and must keep reporting.
	p.Register(reg)
	if got := gaugeMap(reg)[GaugeOutstanding]; got != 0 {
		t.Errorf("after drain, outstanding gauge = %v", got)
	}
	// Nil registry and nil pool are no-ops.
	p.Register(nil)
	(*Pool)(nil).Register(reg)
}

// TestConcurrentAliasing is the property/stress test: hammer Get/Put
// from many goroutines across domains and assert (a) no buffer is ever
// leased to two renters at once — each renter registers its backing
// array's address and poisons the buffer with a renter-unique pattern,
// verifying the pattern before Put — and (b) leak accounting returns to
// zero after the drain. Run under -race this also gives the detector a
// dense interleaving of pool traffic to chew on.
func TestConcurrentAliasing(t *testing.T) {
	const (
		domains    = 3
		goroutines = 12
		rounds     = 400
	)
	p := New(domains)
	var mu sync.Mutex
	active := make(map[*byte]int) // backing array -> renter id

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			poison := byte(g + 1)
			rng := uint64(g)*2654435761 + 1
			for r := 0; r < rounds; r++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				n := int(rng%(16<<10)) + 1
				dom := int(rng>>32) % domains
				b := p.Get(dom, n)
				key := &b.data[0]

				mu.Lock()
				if holder, dup := active[key]; dup {
					mu.Unlock()
					t.Errorf("buffer %p leased to renters %d and %d at once", key, holder, g)
					return
				}
				active[key] = g
				mu.Unlock()

				for i := range b.Bytes() {
					b.Bytes()[i] = poison
				}
				// Re-verify after the writes: if another goroutine held
				// the same backing concurrently, its pattern shows.
				for i, v := range b.Bytes() {
					if v != poison {
						t.Errorf("renter %d: byte %d is %#x, want %#x (aliased buffer)", g, i, v, poison)
						return
					}
				}

				mu.Lock()
				delete(active, key)
				mu.Unlock()
				b.Release()
			}
		}()
	}
	wg.Wait()
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after drain, want 0", got)
	}
	s := p.Stats()
	total := s.Hits + s.Misses + s.Steals
	if want := int64(goroutines * rounds); total != want {
		t.Errorf("hits+misses+steals = %d, want %d", total, want)
	}
	for d, o := range s.OutstandingByDomain {
		if o != 0 {
			t.Errorf("domain %d outstanding = %d after drain", d, o)
		}
	}
}

// TestGetPutZeroAlloc pins the hot-path property the whole PR depends
// on: a steady-state Get/Put cycle allocates nothing (the *Buf handle
// is pooled along with its backing).
func TestGetPutZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := New(2)
	// Warm one buffer per class in use.
	warm := p.Get(0, 1<<20)
	warm.Release()
	avg := testing.AllocsPerRun(200, func() {
		b := p.Get(0, 1<<20)
		b.Bytes()[0] = 1
		b.Release()
	})
	if avg != 0 {
		t.Errorf("Get/Put allocates %.1f objects per cycle, want 0", avg)
	}
}

func TestDefaultPool(t *testing.T) {
	p := Default()
	if p == nil || len(p.shards) < 1 {
		t.Fatalf("Default() = %v", p)
	}
	if Default() != p {
		t.Errorf("Default() is not a singleton")
	}
}

func gaugeMap(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, g := range reg.GaugeSnapshots() {
		out[g.Name] = g.Value
	}
	return out
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func BenchmarkGetPut(b *testing.B) {
	p := New(1)
	warm := p.Get(0, 1<<20)
	warm.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := p.Get(0, 1<<20)
		buf.Release()
	}
}

func BenchmarkGetPutParallel(b *testing.B) {
	p := New(2)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 0
		for pb.Next() {
			buf := p.Get(d, 256<<10)
			buf.Release()
			d ^= 1
		}
	})
}

func ExamplePool() {
	p := New(2)
	b := p.Get(0, 1000)
	fmt.Println(len(b.Bytes()), b.Cap())
	b.Release()
	fmt.Println(p.Outstanding())
	// Output:
	// 1000 1024
	// 0
}
