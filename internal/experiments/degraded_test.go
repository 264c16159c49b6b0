package experiments

import (
	"testing"

	"numastream/internal/faults"
)

// TestDegradedSimDeterministic replays the same fault plan twice and
// requires byte-for-byte identical output — the acceptance bar for the
// simulator-side fault model.
func TestDegradedSimDeterministic(t *testing.T) {
	sched := faults.LinkSchedule{
		{Start: 0.2, End: 0.3, Capacity: 0},
		{Start: 0.5, End: 0.7, Capacity: 0.05},
	}
	a, err := DegradedSimWithSchedule(sched)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := DegradedSimWithSchedule(sched)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if FormatDegradedSim(a) != FormatDegradedSim(b) {
		t.Fatal("same schedule produced different output")
	}
	if a.FaultDelay <= 0 {
		t.Fatalf("FaultDelay = %v, want > 0 (the outage must bite)", a.FaultDelay)
	}
}

// TestDegradedSimRecovers checks the dip-and-recovery shape: the faulted
// run finishes later than the healthy one but still finishes, and the
// throughput curve contains both a depressed bucket and a healthy one.
func TestDegradedSimRecovers(t *testing.T) {
	res, err := DegradedSim()
	if err != nil {
		t.Fatalf("DegradedSim: %v", err)
	}
	if res.Finish <= res.BaseFinish {
		t.Fatalf("faulted finish %v not after healthy finish %v", res.Finish, res.BaseFinish)
	}
	var min, max float64
	min = res.Gbps[0]
	for _, g := range res.Gbps {
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if max <= 0 {
		t.Fatal("no traffic delivered")
	}
	if min > max/2 {
		t.Fatalf("no visible dip: min %v, max %v", min, max)
	}
}

// TestDegradedLoopbackAcceptance is the real-mode acceptance test: a
// connection reset plus one corrupted chunk mid-stream, and the run must
// complete with exact accounting — every chunk either delivered or
// quarantined, the reset recovered by redial + resend, the corruption
// caught by CRC.
func TestDegradedLoopbackAcceptance(t *testing.T) {
	const chunks = 32
	res, err := DegradedLoopback(nil, chunks, 64<<10)
	if err != nil {
		t.Fatalf("DegradedLoopback: %v", err)
	}
	if res.Faults.Resets != 1 || res.Faults.Corruptions != 1 {
		t.Fatalf("faults fired = %+v, want 1 reset + 1 corrupt", res.Faults)
	}
	if res.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want exactly 1 (the corrupted chunk)", res.Quarantined)
	}
	if res.Delivered != chunks-1 {
		t.Fatalf("delivered = %d, want %d (all but the corrupted chunk)", res.Delivered, chunks-1)
	}
	if res.Redials < 1 {
		t.Fatalf("redials = %d, want >= 1 (reset must trigger reconnect)", res.Redials)
	}
	if res.Resends < 1 {
		t.Fatalf("resends = %d, want >= 1 (the reset message must be retransmitted)", res.Resends)
	}
	// Exactly once, minus the corrupted chunk: every sequence number but
	// one reached the Sink, none twice. Order is not asserted: the frame
	// resent on the redialed connection can overtake frames still unread
	// on the reset one, so how many gaps open (and are later filled) is
	// timing. What is fact is that every hole but the quarantined one
	// closes: gaps opened minus late arrivals is the hole that is left.
	seen := make(map[uint64]bool, chunks)
	for _, seq := range res.Seqs {
		if seq >= chunks || seen[seq] {
			t.Fatalf("sink saw seq %d out of range or twice (all: %v)", seq, res.Seqs)
		}
		seen[seq] = true
	}
	if len(seen) != chunks-1 {
		t.Fatalf("sink saw %d distinct seqs, want %d", len(seen), chunks-1)
	}
	for seq := uint64(0); seq < chunks; seq++ {
		// The plan corrupts a payload after the reset at chunk N/2.
		if !seen[seq] && seq <= chunks/2 {
			t.Fatalf("missing seq %d is not the corrupted chunk, which follows the reset at %d", seq, chunks/2)
		}
	}
	if res.SeqGaps-res.SeqLate != res.Quarantined {
		t.Fatalf("seq gaps %d - late %d = %d, want %d (the quarantined chunk's hole)",
			res.SeqGaps, res.SeqLate, res.SeqGaps-res.SeqLate, res.Quarantined)
	}
}
