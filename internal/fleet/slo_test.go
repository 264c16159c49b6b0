package fleet

import (
	"strings"
	"testing"
)

func TestParseSLOsRoundTrip(t *testing.T) {
	spec := "e2e_p99_ms<=250,fair_share>=0.5,holes<=0,hop_delay<=0.1"
	slos, err := ParseSLOs(spec)
	if err != nil {
		t.Fatalf("ParseSLOs: %v", err)
	}
	if len(slos) != 4 {
		t.Fatalf("parsed %d SLOs, want 4", len(slos))
	}
	if slos[1].Metric != "fair_share" || slos[1].Op != ">=" || slos[1].Threshold != 0.5 {
		t.Fatalf("clause 1 = %+v", slos[1])
	}
	parts := make([]string, len(slos))
	for i, s := range slos {
		parts[i] = s.String()
	}
	if got := strings.Join(parts, ","); got != spec {
		t.Fatalf("round trip = %q, want %q", got, spec)
	}
}

func TestParseSLOsErrors(t *testing.T) {
	if _, err := ParseSLOs("made_up<=3"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown metric error = %v, want list of known metrics", err)
	}
	if _, err := ParseSLOs("fair_share=0.5"); err == nil {
		t.Fatal("missing operator accepted")
	}
	if _, err := ParseSLOs("holes<=zero"); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if slos, err := ParseSLOs(" , ,"); err != nil || len(slos) != 0 {
		t.Fatalf("empty clauses = (%v, %v), want none", slos, err)
	}
}

func TestSLOBreachDirections(t *testing.T) {
	budget := SLO{Metric: "holes", Op: "<=", Threshold: 0}
	if budget.breached(0) || !budget.breached(1) {
		t.Fatal("budget breach direction wrong")
	}
	floor := SLO{Metric: "fair_share", Op: ">=", Threshold: 0.5}
	if floor.breached(0.5) || !floor.breached(0.49) {
		t.Fatal("floor breach direction wrong")
	}
}

func sig(fair float64) Signals { return Signals{FairShare: fair} }

func TestAlertLifecycle(t *testing.T) {
	tr := newAlertTracker(SLO{
		Metric: "fair_share", Op: ">=", Threshold: 0.5,
		BurnWindow: 4, FireBurn: 0.5, ClearWindows: 2,
	})

	// One breach: warn, burn 1/4 below firing.
	tr.observe(1, sig(0.2))
	if tr.state != AlertWarn || tr.burn != 0.25 {
		t.Fatalf("after 1 breach: state=%s burn=%g, want warn/0.25", tr.state, tr.burn)
	}

	// Second breach: burn 2/4 fires.
	if entered := tr.observe(2, sig(0.3)); !entered {
		t.Fatal("crossing FireBurn did not report entering firing")
	}
	if tr.state != AlertFiring || tr.fired != 1 {
		t.Fatalf("state=%s fired=%d, want firing/1", tr.state, tr.fired)
	}

	// One clean window is not enough to resolve.
	tr.observe(3, sig(1))
	if tr.state != AlertFiring {
		t.Fatalf("resolved after 1 clean window (ClearWindows 2)")
	}
	// A breach resets the clean run.
	tr.observe(4, sig(0.1))
	tr.observe(5, sig(1))
	if tr.state != AlertFiring {
		t.Fatal("clean counter survived an interleaved breach")
	}
	// Two consecutive clean windows resolve.
	if tr.observe(6, sig(1)) {
		t.Fatal("resolution reported as entering firing")
	}
	if tr.state != AlertOK || tr.resolved != 1 {
		t.Fatalf("state=%s resolved=%d, want ok/1", tr.state, tr.resolved)
	}
	if tr.burn != 0 {
		t.Fatalf("burn = %g after resolve, want reset to 0", tr.burn)
	}

	// A fresh incident must re-earn its burn: one breach only warns.
	tr.observe(7, sig(0.2))
	if tr.state != AlertWarn {
		t.Fatalf("state=%s after post-resolve breach, want warn (burn re-earned)", tr.state)
	}
	tr.observe(8, sig(0.2))
	if tr.state != AlertFiring || tr.fired != 2 {
		t.Fatalf("state=%s fired=%d, want second firing", tr.state, tr.fired)
	}
}

func TestAlertFastBurn(t *testing.T) {
	// FireBurn 0.25 of 4: a single breached window pages — the
	// availability-style objective the churn drill uses.
	tr := newAlertTracker(SLO{
		Metric: "hop_delay", Op: "<=", Threshold: 0,
		BurnWindow: 4, FireBurn: 0.25, ClearWindows: 2,
	})
	if !tr.observe(1, Signals{MaxHopDelayShare: 7}) {
		t.Fatal("single-window spike did not fire a fast-burn alert")
	}
	tr.observe(2, Signals{})
	tr.observe(3, Signals{})
	if tr.state != AlertOK || tr.resolved != 1 {
		t.Fatalf("state=%s resolved=%d, want resolved after 2 clean", tr.state, tr.resolved)
	}
}

func TestAlertWarnClearsWhenRingDrains(t *testing.T) {
	tr := newAlertTracker(SLO{Metric: "holes", Op: "<=", Threshold: 0, BurnWindow: 4, FireBurn: 0.5})
	tr.observe(1, Signals{Holes: 1})
	if tr.state != AlertWarn {
		t.Fatalf("state=%s, want warn", tr.state)
	}
	for i := 2; i <= 5; i++ {
		tr.observe(float64(i), Signals{})
	}
	if tr.state != AlertOK || tr.fired != 0 {
		t.Fatalf("state=%s fired=%d, want warn to drain back to ok without firing", tr.state, tr.fired)
	}
}

func TestTrackerDefaultsApplied(t *testing.T) {
	tr := newAlertTracker(SLO{Metric: "churn", Op: "<="})
	if tr.slo.Name != "churn" || tr.slo.BurnWindow != DefaultBurnWindow ||
		tr.slo.FireBurn != DefaultFireBurn || tr.slo.ClearWindows != DefaultClearWindows {
		t.Fatalf("defaults not applied: %+v", tr.slo)
	}
	if got := tr.snapshot(); got.State != AlertOK {
		t.Fatalf("initial snapshot = %+v, want ok", got)
	}
}
