package pipeline

import (
	"sort"
	"sync"

	"numastream/internal/metrics"
)

// Ledger is the receiver's exactly-once chunk accounting: a per-stream
// sequence-windowed dedup that proves a churn storm delivered every
// chunk exactly once. The transport is at-least-once (a send that fails
// after the frame reached the kernel is retried whole on another connection),
// and churn harnesses re-send whole passes to heal relay-death losses —
// so the receiver sees duplicates by design. The ledger admits each
// (stream, seq) pair once: the first arrival delivers, every repeat is
// counted (CtrDupDrops, plus "dup_drops_stream_<id>") and dropped
// before the sink. What remains unadmitted below a stream's high-water
// mark is a hole — a chunk the storm genuinely lost, which the drills
// attribute to named topology events and re-send until none remain.
//
// Each stream tracks a contiguous-delivered base plus a ring bitset
// over [base, base+window): the base only advances across delivered
// chunks (holes persist and stay visible), so memory stays O(window)
// per stream no matter how long the stream runs. A chunk arriving
// more than window ahead of the oldest hole forces the base forward,
// abandoning accounting for the skipped range (CtrAbandoned) — size
// the window above the worst reorder distance and this never fires.

// Ledger counter names recorded in the registry passed to NewLedger.
const (
	// CtrDupDrops counts duplicate chunks the ledger dropped before
	// delivery. Per-stream variants "dup_drops_stream_<id>" ride along.
	CtrDupDrops = "dup_drops"
	// CtrAbandoned counts sequence slots force-skipped by a window
	// overflow — accounting lost, exactly-once no longer provable for
	// those seqs. Zero in every correctly sized drill.
	CtrAbandoned = "ledger_abandoned"
)

// DefaultLedgerWindow is the default per-stream dedup window.
const DefaultLedgerWindow = 1 << 16

// streamLedger is one stream's accounting.
type streamLedger struct {
	base      uint64   // every seq < base was delivered exactly once
	bits      []uint64 // ring bitset over [base, base+window)
	seenTo    uint64   // high-water mark + 1 (0 = nothing seen yet)
	delivered int64    // unique chunks admitted
	dups      int64    // duplicates dropped
	dupCtr    *metrics.Counter
}

func (s *streamLedger) get(seq uint64, window uint64) bool {
	i := seq % window
	return s.bits[i/64]&(1<<(i%64)) != 0
}

func (s *streamLedger) set(seq uint64, window uint64) {
	i := seq % window
	s.bits[i/64] |= 1 << (i % 64)
}

func (s *streamLedger) clear(seq uint64, window uint64) {
	i := seq % window
	s.bits[i/64] &^= 1 << (i % 64)
}

// Ledger is safe for concurrent use. See the package comment above for
// semantics.
type Ledger struct {
	mu      sync.Mutex
	reg     *metrics.Registry
	window  uint64
	streams map[uint32]*streamLedger

	dupCtr       *metrics.Counter
	abandonedCtr *metrics.Counter
}

// NewLedger builds a ledger over reg (required: the dup/abandon
// counters live there, which is how they reach /metrics). window is the
// per-stream dedup span in sequence numbers; <= 0 means
// DefaultLedgerWindow. It is rounded up to a multiple of 64.
func NewLedger(reg *metrics.Registry, window int) *Ledger {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	w := uint64(window)
	if window <= 0 {
		w = DefaultLedgerWindow
	}
	if w%64 != 0 {
		w += 64 - w%64
	}
	l := &Ledger{
		reg:          reg,
		window:       w,
		streams:      make(map[uint32]*streamLedger),
		dupCtr:       reg.Counter(CtrDupDrops),
		abandonedCtr: reg.Counter(CtrAbandoned),
	}
	// Outstanding holes across all streams, polled at scrape time — the
	// churn-pressure signal the snapshot-diff observer reads.
	reg.RegisterGauge(GaugeLedgerHoles, func() float64 { return float64(l.TotalHoles()) })
	return l
}

// GaugeLedgerHoles is the live count of sequence holes across all
// streams (chunks below a stream's high-water mark never admitted).
// Per-stream variants "ledger_holes_stream_<id>" exist for tracked
// streams.
const GaugeLedgerHoles = "ledger_holes"

func (l *Ledger) stream(id uint32) *streamLedger {
	s, ok := l.streams[id]
	if !ok {
		s = &streamLedger{
			bits: make([]uint64, l.window/64),
			// Past the registry's stream cap this folds into the
			// shared "dup_drops_stream_other" counter.
			dupCtr: l.reg.StreamCounter("dup_drops", id),
		}
		l.streams[id] = s
		// Live hole gauge for the health scoreboard — tracked streams
		// only, so an over-cap stream cannot shadow another's series.
		// The callback takes l.mu via holesLocked's caller, so it must
		// run outside it: GaugeSnapshots polls callbacks unlocked.
		if l.reg.StreamTracked(id) {
			id := id
			l.reg.RegisterGauge(l.reg.StreamName("ledger_holes", id),
				func() float64 { return float64(len(l.Holes(id))) })
		}
	}
	return s
}

// Admit records one arrival of (stream, seq) and reports whether it is
// the first — true means deliver, false means drop the duplicate.
func (l *Ledger) Admit(stream uint32, seq uint64) bool {
	l.mu.Lock()
	s := l.stream(stream)
	if seq < s.base {
		// Below the contiguous prefix: delivered long ago.
		s.dups++
		l.mu.Unlock()
		l.dupCtr.Inc()
		s.dupCtr.Inc()
		return false
	}
	if seq >= s.base+l.window {
		// Window overflow: force the base past the oldest slots. Any
		// still-unset slot below the high-water mark was an outstanding
		// hole whose accounting is now abandoned (a late arrival for it
		// will be miscounted as a duplicate — size the window so this
		// never happens).
		newBase := seq - l.window + 1
		abandoned := int64(0)
		for b := s.base; b < newBase; b++ {
			if s.get(b, l.window) {
				s.clear(b, l.window)
			} else if b < s.seenTo {
				abandoned++
			}
		}
		s.base = newBase
		if abandoned > 0 {
			l.abandonedCtr.Add(abandoned)
		}
	}
	if s.get(seq, l.window) {
		s.dups++
		l.mu.Unlock()
		l.dupCtr.Inc()
		s.dupCtr.Inc()
		return false
	}
	s.set(seq, l.window)
	if seq+1 > s.seenTo {
		s.seenTo = seq + 1
	}
	// Advance the base over the now-contiguous delivered prefix,
	// retiring bits as they leave the window.
	for s.base < s.seenTo && s.get(s.base, l.window) {
		s.clear(s.base, l.window)
		s.base++
	}
	s.delivered++
	l.mu.Unlock()
	return true
}

// Delivered returns the number of unique chunks admitted, totalled
// across streams.
func (l *Ledger) Delivered() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.streams {
		n += s.delivered
	}
	return n
}

// DeliveredStream returns stream id's unique admitted count.
func (l *Ledger) DeliveredStream(id uint32) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.streams[id]; ok {
		return s.delivered
	}
	return 0
}

// Dups returns the number of duplicates dropped, totalled across
// streams.
func (l *Ledger) Dups() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.streams {
		n += s.dups
	}
	return n
}

// Streams returns the ids the ledger has seen, ascending.
func (l *Ledger) Streams() []uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint32, 0, len(l.streams))
	for id := range l.streams {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Holes returns stream id's missing sequence numbers — seqs below the
// high-water mark never admitted. A drill is exactly-once complete when
// every stream's holes are empty and CtrAbandoned is zero.
func (l *Ledger) Holes(id uint32) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.streams[id]
	if !ok {
		return nil
	}
	var holes []uint64
	for seq := s.base; seq < s.seenTo; seq++ {
		if !s.get(seq, l.window) {
			holes = append(holes, seq)
		}
	}
	return holes
}

// TotalHoles counts missing sequence numbers across all streams.
func (l *Ledger) TotalHoles() int {
	n := 0
	for _, id := range l.Streams() {
		n += len(l.Holes(id))
	}
	return n
}

// Abandoned returns the count of force-skipped slots (window
// overflows).
func (l *Ledger) Abandoned() int64 {
	return l.abandonedCtr.Value()
}
