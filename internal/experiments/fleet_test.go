package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numastream/internal/fleet"
	"numastream/internal/obs"
)

// TestFleetThrottledUplinkSim is the tentpole's acceptance drill: with
// relay1's uplink throttled to 5% through the middle of the run, the
// cluster verdict must name that uplink as the dominant bottleneck, the
// fair-share SLO must fire exactly one alert that resolves after the
// throttle lifts, and the firing must capture a linked profile
// artifact.
func TestFleetThrottledUplinkSim(t *testing.T) {
	dir := t.TempDir()
	r, err := FleetThrottledUplinkSim(dir)
	if err != nil {
		t.Fatalf("FleetThrottledUplinkSim: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	// The report's dominant culprit is the throttled uplink, named as
	// node and stage.
	if r.Report.Dominant != obs.VerdictWireBound {
		t.Fatalf("dominant verdict = %s, want %s\n%s", r.Report.Dominant, obs.VerdictWireBound, FormatFleetSim(r))
	}
	if r.Report.DominantNode != "relay1" || r.Report.DominantStage != "relay1-gateway" {
		t.Fatalf("dominant = %s:%s, want relay1:relay1-gateway\n%s",
			r.Report.DominantNode, r.Report.DominantStage, FormatFleetSim(r))
	}

	// The evidence of at least one throttle-era window cites the hop by
	// name with its absorbed delay.
	cited := false
	for _, w := range r.Windows {
		if w.Verdict != obs.VerdictWireBound {
			continue
		}
		for _, ev := range w.Evidence {
			if strings.Contains(ev, "relay1-gateway") {
				cited = true
			}
		}
	}
	if !cited {
		t.Fatalf("no wire-bound window cites relay1-gateway\n%s", FormatFleetSim(r))
	}

	// Exactly one fire, resolved, ending OK — asserted by Check; here we
	// additionally pin the SLO identity.
	a := r.Alerts[0]
	if a.SLO.Metric != "fair_share" {
		t.Fatalf("alert SLO = %s, want fair_share", a.SLO.String())
	}

	// The profile artifact is linked from the report and exists on disk.
	if len(r.Report.Profiles) == 0 {
		t.Fatalf("no profile artifacts captured\n%s", FormatFleetSim(r))
	}
	for _, p := range r.Report.Profiles {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile artifact %s missing or empty (err=%v)", p, err)
		}
		if got, err := filepath.Rel(dir, p); err != nil || strings.HasPrefix(got, "..") {
			t.Fatalf("profile artifact %s escaped its dir %s", p, dir)
		}
	}
	md := r.Report.Markdown()
	if !strings.Contains(md, "relay1-gateway") {
		t.Fatalf("cluster report markdown does not name the throttled hop:\n%s", md)
	}
}

// TestFleetThrottledUplinkDeterminism: same seed, same schedule — the
// cluster windows and regime log must be byte-identical across runs.
func TestFleetThrottledUplinkDeterminism(t *testing.T) {
	a, err := FleetThrottledUplinkSim("")
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := FleetThrottledUplinkSim("")
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	ja, _ := json.Marshal(a.Windows)
	jb, _ := json.Marshal(b.Windows)
	if string(ja) != string(jb) {
		t.Fatal("cluster windows differ across identical runs")
	}
	ra, _ := json.Marshal(a.Regimes)
	rb, _ := json.Marshal(b.Regimes)
	if string(ra) != string(rb) {
		t.Fatal("regime logs differ across identical runs")
	}
}

// TestFleetChurnAlertSim: crashing relay1 mid-run must fire the
// availability SLO and resolve it after the node returns.
func TestFleetChurnAlertSim(t *testing.T) {
	r, err := FleetChurnAlertSim("")
	if err != nil {
		t.Fatalf("FleetChurnAlertSim: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	a := r.Alerts[0]
	if a.SLO.Metric != "hop_delay" {
		t.Fatalf("alert SLO = %s, want hop_delay", a.SLO.String())
	}
	// The outage was felt: some window saw a hop absorbing fault delay.
	// (Finish time can stay flat — the async send pipeline absorbs the
	// arrival stall — which is exactly why the alert plane matters.)
	felt := false
	for _, w := range r.Windows {
		if w.Signals.MaxHopDelayShare > 0 {
			felt = true
		}
	}
	if !felt {
		t.Fatalf("no window recorded hop fault delay\n%s", FormatFleetSim(r))
	}
	// The regime log records entering a degraded cluster state during
	// the outage (any non-idle transition is fine; the alert lifecycle
	// is the contract here).
	if len(r.Regimes) == 0 {
		t.Fatalf("no regime transitions recorded\n%s", FormatFleetSim(r))
	}
	// Report renders without panicking and names the fleet.
	if md := r.Report.Markdown(); !strings.Contains(md, "churn-alert-sim") {
		t.Fatalf("report markdown missing fleet name:\n%s", md)
	}
}

// TestFleetReportArtifacts: WriteReportFile writes markdown for .md and
// JSON otherwise.
func TestFleetReportArtifacts(t *testing.T) {
	r, err := FleetThrottledUplinkSim("")
	if err != nil {
		t.Fatalf("FleetThrottledUplinkSim: %v", err)
	}
	dir := t.TempDir()
	mdPath := filepath.Join(dir, "cluster.md")
	jsonPath := filepath.Join(dir, "cluster.json")
	if err := obs.WriteReportFile(mdPath, r.Report); err != nil {
		t.Fatalf("WriteReportFile(md): %v", err)
	}
	if err := obs.WriteReportFile(jsonPath, r.Report); err != nil {
		t.Fatalf("WriteReportFile(json): %v", err)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil || !strings.HasPrefix(string(md), "#") {
		t.Fatalf("markdown artifact wrong (err=%v): %q", err, string(md[:min(40, len(md))]))
	}
	var back fleet.Report
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("read json artifact: %v", err)
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("json artifact does not round-trip: %v", err)
	}
	if back.Dominant != r.Report.Dominant || back.Fleet != r.Report.Fleet {
		t.Fatalf("json round-trip lost fields: %+v", back)
	}
}
