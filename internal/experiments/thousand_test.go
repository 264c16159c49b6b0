package experiments

import (
	"bytes"
	"strings"
	"testing"

	"numastream/internal/faults"
	"numastream/internal/metrics"
	"numastream/internal/obs"
)

// TestThousandStreamSimDeterministic: the sim drill is a pure function
// of config — two same-seed runs must render byte-identical JSON, and
// a different seed must not.
func TestThousandStreamSimDeterministic(t *testing.T) {
	cfg := ThousandStreamConfig{Streams: 200, Chunks: 30, ChunkBytes: 8 << 10, Seed: 42}
	a, err := ThousandStreamSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ThousandStreamSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("same-seed sim runs rendered different JSON")
	}
	cfg.Seed = 43
	c, err := ThousandStreamSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := c.JSON()
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds rendered identical JSON: the seed is dead")
	}
}

// TestThousandStreamSimLedgerCloses: at full scale (1,000 streams) the
// ledger closes on every stream with bounded throughput spread — the
// sim half of the acceptance drill.
func TestThousandStreamSimLedgerCloses(t *testing.T) {
	res, err := ThousandStreamSim(ThousandStreamConfig{Streams: 1000, Chunks: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 1000 || len(res.PerStream) != 1000 {
		t.Fatalf("admitted %d streams with %d rows, want 1000", res.Admitted, len(res.PerStream))
	}
	if err := res.Check(0.5); err != nil {
		t.Fatal(err)
	}
}

// TestThousandStreamSimAdmissionAndFaults: the sim honours the
// admission cap and a fault plan produces duplicate deliveries that
// the ledger absorbs without losing exactly-once.
func TestThousandStreamSimAdmissionAndFaults(t *testing.T) {
	plan, err := faults.ParseFaultPlan("reset@w10, corrupt@w5, stall@w3:50ms, seed=7")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ThousandStreamSim(ThousandStreamConfig{
		Streams: 100, Chunks: 40, ChunkBytes: 4 << 10,
		MaxStreams: 60, Seed: 11, Plan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 60 || res.Rejected != 40 {
		t.Fatalf("admitted/rejected = %d/%d, want 60/40", res.Admitted, res.Rejected)
	}
	if res.Delivered != 60*40 {
		t.Fatalf("delivered %d, want %d", res.Delivered, 60*40)
	}
	if res.Holes != 0 || res.Abandoned != 0 {
		t.Fatalf("holes %d abandoned %d under faults", res.Holes, res.Abandoned)
	}
	// The reset retransmits a credit window; unless every victim landed
	// on a rejected stream, dups surface. With seed 11 they do.
	if res.Dups == 0 {
		t.Fatal("fault plan produced no duplicate deliveries")
	}
	if !strings.Contains(res.FaultPlan, "reset@w10") {
		t.Fatalf("fault plan not recorded: %q", res.FaultPlan)
	}
}

// TestThousandStreamLoopback runs the real-socket drill at a size CI
// can afford: every stream's ledger must close exactly-once and the
// fairness floor must hold. An engine on the drill's registry, as
// loadgen's live soak runs one, watches the gateway alone: its stage
// rows are the gateway's, each at most fully used.
func TestThousandStreamLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback drill in -short mode")
	}
	reg := metrics.NewRegistry()
	eng := obs.NewEngine(reg, obs.Options{})
	eng.Tick()
	res, err := ThousandStreamLoopback(ThousandStreamConfig{
		Streams: 48, Chunks: 12, ChunkBytes: 8 << 10, Seed: 42, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := eng.Tick()
	for _, st := range w.Stages {
		if st.Stage != "receive" && st.Stage != "decompress" {
			t.Errorf("gateway engine has a %s row: %+v", st.Stage, st)
		}
		if st.Util > 1 {
			t.Errorf("%s util = %.2f, want at most 1 (%+v)", st.Stage, st.Util, st)
		}
	}
	if res.Admitted != 48 {
		t.Fatalf("admitted %d streams, want 48", res.Admitted)
	}
	// Wall-clock spread on a loaded CI box is real; assert the ledger
	// contract strictly and the fairness floor leniently.
	if err := res.Check(0.2); err != nil {
		t.Fatal(err)
	}
	out := FormatThousandStream(res)
	if !strings.Contains(out, "thousand-stream loopback") || !strings.Contains(out, "holes 0") {
		t.Fatalf("format output missing summary:\n%s", out)
	}
}
