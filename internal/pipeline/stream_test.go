package pipeline

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/numa"
	"numastream/internal/runtime"
	"numastream/internal/trace"
)

// crcTable is hash/crc32's Castagnoli table: tests sum frames with the
// standard library, independently of the crc32c kernel wireCRC runs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func metricsRegistry() *metrics.Registry { return metrics.NewRegistry() }

func timeSleep() { time.Sleep(5 * time.Millisecond) }

func testTopo() numa.HostTopology {
	return numa.Synthetic(2, 2)
}

func senderCfg(nComp, nSend int) runtime.NodeConfig {
	cfg := runtime.NodeConfig{Node: "snd", Role: runtime.Sender}
	if nComp > 0 {
		cfg.Groups = append(cfg.Groups, runtime.TaskGroup{
			Type: runtime.Compress, Count: nComp, Placement: runtime.OS()})
	}
	cfg.Groups = append(cfg.Groups, runtime.TaskGroup{
		Type: runtime.Send, Count: nSend, Placement: runtime.OS()})
	return cfg
}

func receiverCfg(nRecv, nDec int) runtime.NodeConfig {
	cfg := runtime.NodeConfig{Node: "rcv", Role: runtime.Receiver,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Receive, Count: nRecv, Placement: runtime.OS()},
		}}
	if nDec > 0 {
		cfg.Groups = append(cfg.Groups, runtime.TaskGroup{
			Type: runtime.Decompress, Count: nDec, Placement: runtime.OS()})
	}
	return cfg
}

// chunkSource yields n copies of patterned, compressible chunks.
func chunkSource(n, size int) func() []byte {
	var mu sync.Mutex
	i := 0
	return func() []byte {
		mu.Lock()
		defer mu.Unlock()
		if i >= n {
			return nil
		}
		chunk := bytes.Repeat([]byte(fmt.Sprintf("chunk-%04d ", i)), size/11+1)[:size]
		i++
		return chunk
	}
}

// runLoopback wires a receiver and sender over 127.0.0.1 and returns the
// delivered chunks keyed by sequence.
func runLoopback(t *testing.T, sCfg, rCfg runtime.NodeConfig, chunks, chunkSize int,
	sReg, rReg *metrics.Registry) map[uint64][]byte {
	t.Helper()
	topo := testTopo()

	ready := make(chan string, 1)
	var mu sync.Mutex
	got := make(map[uint64][]byte)

	recvErr := make(chan error, 1)
	go func() {
		recvErr <- RunReceiver(ReceiverOptions{
			Cfg:     rCfg,
			Topo:    topo,
			Bind:    "127.0.0.1:0",
			Expect:  chunks,
			Metrics: rReg,
			Ready:   ready,
			Sink: func(c Chunk) error {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[c.Seq]; dup {
					return fmt.Errorf("duplicate chunk %d", c.Seq)
				}
				data := make([]byte, len(c.Data))
				copy(data, c.Data)
				got[c.Seq] = data
				return nil
			},
		})
	}()

	addr := <-ready
	if err := RunSender(SenderOptions{
		Cfg:     sCfg,
		Topo:    topo,
		Peers:   []string{addr},
		Source:  chunkSource(chunks, chunkSize),
		Metrics: sReg,
	}); err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("RunReceiver: %v", err)
	}
	return got
}

func TestLoopbackWithCompression(t *testing.T) {
	const chunks, size = 40, 64 << 10
	sReg, rReg := metrics.NewRegistry(), metrics.NewRegistry()
	got := runLoopback(t, senderCfg(2, 2), receiverCfg(2, 2), chunks, size, sReg, rReg)

	if len(got) != chunks {
		t.Fatalf("delivered %d chunks, want %d", len(got), chunks)
	}
	src := chunkSource(chunks, size)
	for i := 0; i < chunks; i++ {
		want := src()
		if !bytes.Equal(got[uint64(i)], want) {
			t.Fatalf("chunk %d corrupted in flight", i)
		}
	}
	// Compression must actually have shrunk the wire traffic.
	var sent, compressed int64
	for _, s := range sReg.Snapshots() {
		switch s.Name {
		case "send":
			sent = s.Bytes
		case "compress":
			compressed = s.Bytes
		}
	}
	if compressed != int64(chunks*size) {
		t.Fatalf("compress meter = %d, want %d", compressed, chunks*size)
	}
	if sent >= int64(chunks*size) {
		t.Fatalf("wire bytes %d not smaller than raw %d", sent, chunks*size)
	}
	// Receiver-side meters line up.
	var recvB, decB int64
	for _, s := range rReg.Snapshots() {
		switch s.Name {
		case "receive":
			recvB = s.Bytes
		case "decompress":
			decB = s.Bytes
		}
	}
	if recvB != sent {
		t.Fatalf("receive meter %d != sent %d", recvB, sent)
	}
	if decB != int64(chunks*size) {
		t.Fatalf("decompress meter %d != raw %d", decB, chunks*size)
	}
}

func TestLoopbackWithoutCompression(t *testing.T) {
	const chunks, size = 20, 16 << 10
	got := runLoopback(t, senderCfg(0, 2), receiverCfg(2, 0), chunks, size,
		metrics.NewRegistry(), metrics.NewRegistry())
	if len(got) != chunks {
		t.Fatalf("delivered %d chunks, want %d", len(got), chunks)
	}
	for i := 0; i < chunks; i++ {
		if got[uint64(i)] == nil {
			t.Fatalf("chunk %d missing", i)
		}
	}
}

func TestLoopbackPinnedPlacement(t *testing.T) {
	// Pinned placements must flow through the same path (pin failures
	// are tolerated on restricted hosts, the data must still arrive).
	sCfg := runtime.NodeConfig{Node: "snd", Role: runtime.Sender,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Compress, Count: 2, Placement: runtime.SplitAll()},
			{Type: runtime.Send, Count: 1, Placement: runtime.PinTo(0)},
		}}
	rCfg := runtime.NodeConfig{Node: "rcv", Role: runtime.Receiver,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Receive, Count: 1, Placement: runtime.PinTo(1)},
			{Type: runtime.Decompress, Count: 2, Placement: runtime.PinTo(0)},
		}}
	got := runLoopback(t, sCfg, rCfg, 10, 8<<10, metrics.NewRegistry(), metrics.NewRegistry())
	if len(got) != 10 {
		t.Fatalf("delivered %d chunks, want 10", len(got))
	}
}

func TestRunSenderValidation(t *testing.T) {
	topo := testTopo()
	base := SenderOptions{
		Cfg:    senderCfg(0, 1),
		Topo:   topo,
		Peers:  []string{"127.0.0.1:1"},
		Source: chunkSource(1, 10),
	}

	noPeers := base
	noPeers.Peers = nil
	if err := RunSender(noPeers); err == nil {
		t.Error("accepted sender without peers")
	}

	noSource := base
	noSource.Source = nil
	if err := RunSender(noSource); err == nil {
		t.Error("accepted sender without source")
	}

	badRole := base
	badRole.Cfg = receiverCfg(1, 0)
	if err := RunSender(badRole); err == nil {
		t.Error("accepted receiver config in RunSender")
	}

	noSend := base
	noSend.Cfg = runtime.NodeConfig{Node: "snd", Role: runtime.Sender}
	if err := RunSender(noSend); err == nil {
		t.Error("accepted sender config without send threads")
	}

	badSocket := base
	badSocket.Cfg = runtime.NodeConfig{Node: "snd", Role: runtime.Sender,
		Groups: []runtime.TaskGroup{
			{Type: runtime.Send, Count: 1, Placement: runtime.PinTo(9)},
		}}
	if err := RunSender(badSocket); err == nil {
		t.Error("accepted pin to nonexistent socket")
	}
}

func TestRunReceiverValidation(t *testing.T) {
	topo := testTopo()
	base := ReceiverOptions{
		Cfg:    receiverCfg(1, 0),
		Topo:   topo,
		Bind:   "127.0.0.1:0",
		Expect: 1,
	}

	noExpect := base
	noExpect.Expect = 0
	if err := RunReceiver(noExpect); err == nil {
		t.Error("accepted receiver without Expect")
	}

	badRole := base
	badRole.Cfg = senderCfg(0, 1)
	if err := RunReceiver(badRole); err == nil {
		t.Error("accepted sender config in RunReceiver")
	}

	badBind := base
	badBind.Bind = "256.0.0.1:99999"
	if err := RunReceiver(badBind); err == nil {
		t.Error("accepted invalid bind address")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	c := Chunk{Seq: 12345678901, Stream: 7, RawLen: 11059200, Packed: true}
	const crc = 0xdeadbeef
	got, gotCRC, err := decodeHeader(encodeHeader(c, crc))
	if err != nil {
		t.Fatalf("decodeHeader: %v", err)
	}
	if got.Seq != c.Seq || got.Stream != c.Stream || got.RawLen != c.RawLen || got.Packed != c.Packed {
		t.Fatalf("round trip = %+v, want %+v", got, c)
	}
	if gotCRC != crc {
		t.Fatalf("crc round trip = %08x, want %08x", gotCRC, crc)
	}
	if _, _, err := decodeHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestPinForMappings(t *testing.T) {
	topo := testTopo()
	pin, err := pinFor(topo, runtime.PinTo(1))
	if err != nil || len(pin.CPUSets) != 1 || pin.CPUSets[0][0] != 2 {
		t.Fatalf("PinTo(1) = %+v, %v", pin, err)
	}
	pin, err = pinFor(topo, runtime.SplitAll())
	if err != nil || len(pin.CPUSets) != 2 {
		t.Fatalf("SplitAll = %+v, %v", pin, err)
	}
	pin, err = pinFor(topo, runtime.OS())
	if err != nil || len(pin.CPUSets) != 0 {
		t.Fatalf("OS = %+v, %v", pin, err)
	}
	pin, err = pinFor(topo, runtime.PinToCores(1, 3))
	if err != nil || len(pin.CPUSets) != 2 || pin.CPUSets[1][0] != 3 {
		t.Fatalf("PinToCores = %+v, %v", pin, err)
	}
	if _, err := pinFor(topo, runtime.PinTo(5)); err == nil {
		t.Fatal("PinTo(5) accepted on 2-node topology")
	}
	if _, err := pinFor(topo, runtime.Placement{Mode: "bogus"}); err == nil {
		t.Fatal("bogus placement mode accepted")
	}
}

func TestPoolRunsAllWorkers(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	p := StartPool(PoolConfig{Name: "test", Workers: 4}, func(w *Worker) error {
		mu.Lock()
		seen[w.ID()] = true
		mu.Unlock()
		return nil
	})
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(seen) != 4 {
		t.Fatalf("ran %d workers, want 4", len(seen))
	}
	if p.Name() != "test" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestPoolJoinsErrors(t *testing.T) {
	p := StartPool(PoolConfig{Name: "boom", Workers: 3}, func(w *Worker) error {
		if w.ID() == 1 {
			return fmt.Errorf("worker %d failed", w.ID())
		}
		return nil
	})
	err := p.Wait()
	if err == nil {
		t.Fatal("Wait returned nil despite a failing worker")
	}
}

func TestDomainPin(t *testing.T) {
	topo := testTopo()
	pin, err := DomainPin(topo, 0)
	if err != nil || len(pin.CPUSets) != 1 {
		t.Fatalf("DomainPin = %+v, %v", pin, err)
	}
	if _, err := DomainPin(topo, 7); err == nil {
		t.Fatal("DomainPin(7) accepted")
	}
}

// TestOpenEndedReceiverStops runs a receiver without an Expect count and
// stops it via the Stop channel after some chunks have flowed.
func TestOpenEndedReceiverStops(t *testing.T) {
	topo := testTopo()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	var mu sync.Mutex
	delivered := 0
	recvErr := make(chan error, 1)
	go func() {
		recvErr <- RunReceiver(ReceiverOptions{
			Cfg: receiverCfg(1, 0), Topo: topo, Bind: "127.0.0.1:0",
			Stop: stop, Ready: ready,
			Sink: func(c Chunk) error {
				mu.Lock()
				delivered++
				mu.Unlock()
				return nil
			},
		})
	}()
	addr := <-ready
	if err := RunSender(SenderOptions{
		Cfg: senderCfg(0, 1), Topo: topo, Peers: []string{addr},
		Source: chunkSource(8, 4<<10),
	}); err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	// Give the receiver a moment to drain, then stop it.
	for i := 0; i < 200; i++ {
		mu.Lock()
		n := delivered
		mu.Unlock()
		if n == 8 {
			break
		}
		timeSleep()
	}
	close(stop)
	if err := <-recvErr; err != nil {
		t.Fatalf("RunReceiver: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 8 {
		t.Fatalf("delivered %d chunks before stop, want 8", delivered)
	}
}

// TestReceiverRequiresExpectOrStop documents the validation rule.
func TestReceiverRequiresExpectOrStop(t *testing.T) {
	err := RunReceiver(ReceiverOptions{
		Cfg: receiverCfg(1, 0), Topo: testTopo(), Bind: "127.0.0.1:0",
	})
	if err == nil {
		t.Fatal("receiver without Expect or Stop accepted")
	}
}

// TestRealModeTracing checks real workers emit trace spans for every
// stage.
func TestRealModeTracing(t *testing.T) {
	topo := testTopo()
	sTr := trace.New(0)
	rTr := trace.New(0)
	ready := make(chan string, 1)
	recvErr := make(chan error, 1)
	go func() {
		recvErr <- RunReceiver(ReceiverOptions{
			Cfg: receiverCfg(1, 1), Topo: topo, Bind: "127.0.0.1:0",
			Expect: 6, Ready: ready, Tracer: rTr,
		})
	}()
	addr := <-ready
	if err := RunSender(SenderOptions{
		Cfg: senderCfg(1, 1), Topo: topo, Peers: []string{addr},
		Source: chunkSource(6, 8<<10), Tracer: sTr,
	}); err != nil {
		t.Fatalf("RunSender: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("RunReceiver: %v", err)
	}
	count := func(tr *trace.Tracer, cat string) int {
		n := 0
		for _, e := range tr.Events() {
			if e.Category == cat {
				n++
			}
		}
		return n
	}
	if count(sTr, "compress") != 6 || count(sTr, "send") != 6 {
		t.Fatalf("sender spans: compress=%d send=%d, want 6 each",
			count(sTr, "compress"), count(sTr, "send"))
	}
	if count(rTr, "receive") != 6 || count(rTr, "decompress") != 6 {
		t.Fatalf("receiver spans: receive=%d decompress=%d, want 6 each",
			count(rTr, "receive"), count(rTr, "decompress"))
	}
}

// TestSenderAbortsWhenPeersNeverAppear pins the abort path when every
// send worker fails (dead peers past the horizon) while compress
// workers are blocked on a full send queue: RunSender must surface the
// horizon error instead of wedging in the compress pool's Wait. The
// tiny QueueCap plus a source much larger than it forces the blocked-
// Put state before the horizon expires.
func TestSenderAbortsWhenPeersNeverAppear(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- RunSender(SenderOptions{
			Cfg:         senderCfg(2, 2),
			Topo:        testTopo(),
			Peers:       []string{"127.0.0.1:1"}, // nothing listens here
			Metrics:     metrics.NewRegistry(),
			SendHorizon: 300 * time.Millisecond,
			QueueCap:    2,
			Source:      chunkSource(64, 32<<10),
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunSender returned nil with no live peers")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("RunSender wedged after all send workers failed")
	}
}
