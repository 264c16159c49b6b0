package hw

import (
	"math"
	"testing"

	"numastream/internal/sim"
)

func testMachine() (*sim.Engine, *Machine) {
	eng := sim.NewEngine()
	return eng, New(eng, Config{
		Name:           "test",
		Sockets:        2,
		CoresPerSocket: 4,
		MemBW:          100,
		UncoreBW:       100,
		InterconnectBW: 50,
		RemotePenalty:  0.2,
		CtxSwitchTax:   0.1,
		MigrationTax:   0.25,
		NICs:           []NICConfig{{Name: "nic1", Socket: 1, BW: 1000}},
	})
}

func TestNewLayout(t *testing.T) {
	_, m := testMachine()
	if len(m.Cores) != 8 {
		t.Fatalf("cores = %d, want 8", len(m.Cores))
	}
	if len(m.Sockets) != 2 {
		t.Fatalf("sockets = %d", len(m.Sockets))
	}
	for i, c := range m.Cores {
		if c.ID != i {
			t.Fatalf("core %d has id %d", i, c.ID)
		}
		wantSocket := i / 4
		if c.Socket != wantSocket {
			t.Fatalf("core %d on socket %d, want %d", i, c.Socket, wantSocket)
		}
	}
	nic, ok := m.NIC("nic1")
	if !ok || nic.Socket != 1 {
		t.Fatalf("NIC lookup failed: %v %v", nic, ok)
	}
	if _, ok := m.NIC("ghost"); ok {
		t.Fatal("nonexistent NIC found")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Sockets: 0, CoresPerSocket: 4, MemBW: 1, UncoreBW: 1, InterconnectBW: 1},
		{Sockets: 1, CoresPerSocket: 1, MemBW: 1, UncoreBW: 1, InterconnectBW: 1,
			NICs: []NICConfig{{Name: "x", Socket: 5, BW: 1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(sim.NewEngine(), cfg)
		}()
	}
}

func TestAllocCoreBalances(t *testing.T) {
	_, m := testMachine()
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		c := m.AllocCore([]int{0, 1})
		seen[c.ID]++
	}
	// Eight allocations over eight cores must land one thread each.
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("core %d got %d threads before others were filled", id, n)
		}
	}
	// Ninth allocation doubles up somewhere.
	c := m.AllocCore([]int{0, 1})
	if c.Threads != 2 {
		t.Fatalf("ninth thread landed on core with %d threads", c.Threads)
	}
}

func TestAllocCoreRestrictedToSocket(t *testing.T) {
	_, m := testMachine()
	for i := 0; i < 6; i++ {
		c := m.AllocCore([]int{1})
		if c.Socket != 1 {
			t.Fatalf("allocation escaped socket 1 to core %d (socket %d)", c.ID, c.Socket)
		}
	}
}

func TestReleaseCore(t *testing.T) {
	_, m := testMachine()
	c := m.AllocCore([]int{0})
	m.ReleaseCore(c)
	if c.Threads != 0 {
		t.Fatalf("Threads = %d after release", c.Threads)
	}
	m.ReleaseCore(c) // must not go negative
	if c.Threads != 0 {
		t.Fatalf("Threads = %d after double release", c.Threads)
	}
}

func TestExecLocalOp(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 1
	done := m.Exec(0, c, Op{Compute: 1, ReadBytes: 10, ReadSocket: 0, WriteBytes: 10, WriteSocket: 0})
	// compute 1s dominates (20 bytes over 100 B/s paths = 0.2s).
	if math.Abs(done-1) > 1e-9 {
		t.Fatalf("done = %v, want 1", done)
	}
	if c.RemoteBytes != 0 {
		t.Fatalf("RemoteBytes = %v for local op", c.RemoteBytes)
	}
	if c.TotalBytes != 20 {
		t.Fatalf("TotalBytes = %v, want 20", c.TotalBytes)
	}
}

func TestExecRemoteReadPenalty(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 1
	done := m.Exec(0, c, Op{Compute: 1, ReadBytes: 10, ReadSocket: 1, WriteBytes: 0, WriteSocket: 0})
	want := 1.2 // 20% remote penalty
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("done = %v, want %v", done, want)
	}
	if c.RemoteBytes != 10 {
		t.Fatalf("RemoteBytes = %v, want 10", c.RemoteBytes)
	}
}

func TestExecContextSwitchTax(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 2 // one extra co-located thread
	done := m.Exec(0, c, Op{Compute: 1})
	want := 1.1 // 1 * 10%
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestExecContextSwitchTaxCapped(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 100
	done := m.Exec(0, c, Op{Compute: 1})
	if math.Abs(done-(1+maxCtxSwitchTax)) > 1e-9 {
		t.Fatalf("done = %v, want %v (capped)", done, 1+maxCtxSwitchTax)
	}
}

func TestExecMigrationTax(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 1
	done := m.Exec(0, c, Op{Compute: 1, Unpinned: true})
	if math.Abs(done-1.25) > 1e-9 {
		t.Fatalf("done = %v, want 1.25", done)
	}
}

func TestExecMemoryBound(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 1
	// 200 bytes through the 100 B/s uncore takes 2s > 0.1s compute.
	done := m.Exec(0, c, Op{Compute: 0.1, ReadBytes: 100, ReadSocket: 0, WriteBytes: 100, WriteSocket: 0})
	if math.Abs(done-2) > 1e-9 {
		t.Fatalf("done = %v, want 2 (uncore-bound)", done)
	}
}

func TestExecUncoreContentionSerializes(t *testing.T) {
	_, m := testMachine()
	a := m.Sockets[0].Cores[0]
	b := m.Sockets[0].Cores[1]
	a.Threads, b.Threads = 1, 1
	// Two ops on distinct cores of the same socket share its uncore.
	op := Op{Compute: 0.1, ReadBytes: 100, ReadSocket: 0, WriteSocket: 0}
	d1 := m.Exec(0, a, op)
	d2 := m.Exec(0, b, op)
	if math.Abs(d1-1) > 1e-9 || math.Abs(d2-2) > 1e-9 {
		t.Fatalf("contended completions = %v, %v; want 1, 2", d1, d2)
	}
	// The same two ops on different sockets do not contend.
	_, m2 := testMachine()
	a2, b2 := m2.Sockets[0].Cores[0], m2.Sockets[1].Cores[0]
	a2.Threads, b2.Threads = 1, 1
	d1 = m2.Exec(0, a2, Op{Compute: 0.1, ReadBytes: 100, ReadSocket: 0, WriteSocket: 0})
	d2 = m2.Exec(0, b2, Op{Compute: 0.1, ReadBytes: 100, ReadSocket: 1, WriteSocket: 1})
	if math.Abs(d1-1) > 1e-9 || math.Abs(d2-1) > 1e-9 {
		t.Fatalf("split-socket completions = %v, %v; want 1, 1", d1, d2)
	}
}

func TestExecCrossSocketChargesInterconnect(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 1
	// 100 bytes read from socket 1 while executing on socket 0: the
	// interconnect (50 B/s) dominates at 2s.
	done := m.Exec(0, c, Op{Compute: 0.1, ReadBytes: 100, ReadSocket: 1, WriteSocket: 0})
	if math.Abs(done-2) > 1e-9 {
		t.Fatalf("done = %v, want 2 (interconnect-bound)", done)
	}
	if m.interconnect.Served() != 100 {
		t.Fatalf("interconnect served %v, want 100", m.interconnect.Served())
	}
}

func TestExecWriteAllocateDoublesWriteTraffic(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[0].Cores[0]
	c.Threads = 1
	// 50 write bytes with write-allocate cost 100 on uncore and MC:
	// 100 bytes / 100 B/s = 1s, dominating the 0.1s compute.
	done := m.Exec(0, c, Op{Compute: 0.1, WriteBytes: 50, WriteSocket: 0, WriteAllocate: true})
	if math.Abs(done-1) > 1e-9 {
		t.Fatalf("done = %v, want 1 (write-allocate bound)", done)
	}
	if got := m.Sockets[0].Mem.Served(); got != 100 {
		t.Fatalf("MC served %v, want 100 (RFO + writeback)", got)
	}
	// Without write-allocate the same op is half as expensive.
	_, m2 := testMachine()
	c2 := m2.Sockets[0].Cores[0]
	c2.Threads = 1
	done = m2.Exec(0, c2, Op{Compute: 0.1, WriteBytes: 50, WriteSocket: 0})
	if math.Abs(done-0.5) > 1e-9 {
		t.Fatalf("done = %v, want 0.5", done)
	}
}

func TestDMAWriteChargesMemoryOnly(t *testing.T) {
	_, m := testMachine()
	done := m.DMAWrite(0, 1, 100)
	if math.Abs(done-1) > 1e-9 {
		t.Fatalf("done = %v, want 1", done)
	}
	if m.Sockets[1].Mem.Served() != 100 {
		t.Fatalf("mem served = %v", m.Sockets[1].Mem.Served())
	}
	if m.Sockets[1].Uncore.Served() != 0 {
		t.Fatal("DMA write should not touch the uncore server")
	}
}

func TestCoreStats(t *testing.T) {
	_, m := testMachine()
	c := m.Sockets[1].Cores[2]
	c.Threads = 1
	m.Exec(0, c, Op{Compute: 2, ReadBytes: 10, ReadSocket: 0, WriteBytes: 5, WriteSocket: 1})
	stats := m.CoreStats(4)
	cs := stats[c.ID]
	if cs.Socket != 1 {
		t.Fatalf("socket = %d", cs.Socket)
	}
	// 2s compute * 1.2 remote penalty over horizon 4 = 0.6.
	if math.Abs(cs.Utilization-0.6) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.6", cs.Utilization)
	}
	if cs.RemoteBytes != 10 || cs.TotalBytes != 15 {
		t.Fatalf("bytes = %v/%v", cs.RemoteBytes, cs.TotalBytes)
	}
	for i, s := range stats {
		if i != c.ID && s.Utilization != 0 {
			t.Fatalf("idle core %d shows utilization %v", i, s.Utilization)
		}
	}
}

func TestBuilders(t *testing.T) {
	eng := sim.NewEngine()
	lynx := NewLynxdtn(eng)
	if len(lynx.Cores) != 32 || len(lynx.Sockets) != 2 {
		t.Fatalf("lynxdtn: %d cores, %d sockets", len(lynx.Cores), len(lynx.Sockets))
	}
	if n := DataNIC(lynx); n.Socket != 1 || n.BW != BytesPerSec(200) {
		t.Fatalf("lynxdtn data NIC: socket %d bw %v", n.Socket, n.BW)
	}
	up := NewUpdraft(eng, "updraft1")
	if n := DataNIC(up); n.BW != BytesPerSec(100) {
		t.Fatalf("updraft NIC bw %v", n.BW)
	}
	pol := NewPolaris(eng, "polaris1")
	if len(pol.Cores) != 32 || len(pol.Sockets) != 1 {
		t.Fatalf("polaris: %d cores, %d sockets", len(pol.Cores), len(pol.Sockets))
	}
	if n := DataNIC(pol); n.Socket != 0 {
		t.Fatalf("polaris NIC socket %d", n.Socket)
	}
}

func TestGbpsConversions(t *testing.T) {
	if g := Gbps(12.5e9); math.Abs(g-100) > 1e-9 {
		t.Fatalf("Gbps(12.5e9) = %v", g)
	}
	if b := BytesPerSec(100); math.Abs(b-12.5e9) > 1e-6 {
		t.Fatalf("BytesPerSec(100) = %v", b)
	}
	if math.Abs(Gbps(BytesPerSec(42))-42) > 1e-9 {
		t.Fatal("Gbps/BytesPerSec are not inverses")
	}
}

func TestCalibrationAnchors(t *testing.T) {
	// 8 compression threads ≈ the paper's 37 Gbps baseline.
	if got := Gbps(8 * CompressRate); math.Abs(got-37) > 1.0 {
		t.Fatalf("8-thread compression = %.1f Gbps, want ~37", got)
	}
	// Decompression is 3X compression.
	if DecompressRate != 3*CompressRate {
		t.Fatal("decompress rate is not 3X compress rate")
	}
	// 16 single-socket decompressors must exceed the uncore budget
	// while an 8-thread set must not (Fig 9's crossover). A
	// decompressor moves read 1/ratio + write-allocate 2×1 bytes per
	// output byte.
	perThreadUncore := DecompressRate * (2 + 1/CompressionRatio)
	if 16*perThreadUncore <= SocketUncoreBW {
		t.Fatal("16 decompressors do not contend the uncore; Fig 9 E/F would not win")
	}
	if 8*perThreadUncore >= SocketUncoreBW {
		t.Fatal("8 decompressors already contend the uncore; Fig 9's 8-thread parity would break")
	}
	// The DDIO receive path at the NIC's full 200 Gbps (2 bytes moved
	// per wire byte) must stay inside the uncore budget, or Fig 5's
	// NIC-local placement would collapse instead of winning.
	if 2*BytesPerSec(200) >= SocketUncoreBW {
		t.Fatal("line-rate receive exceeds the uncore budget; Fig 5 would invert")
	}
}
