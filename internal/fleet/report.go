package fleet

import (
	"fmt"
	"strings"

	"numastream/internal/obs"
)

// Report is the end-of-run cluster artifact: every retained cluster
// window with its verdict and culprit, the regime log, the final alert
// states, and the profile artifacts captured along the way. Dominant is
// the culprit that governed the most windowed time.
type Report struct {
	Fleet              string             `json:"fleet,omitempty"`
	T0                 float64            `json:"t0_run"`
	T1                 float64            `json:"t1_run"`
	Dominant           obs.Verdict        `json:"dominant"`
	DominantNode       string             `json:"dominant_node,omitempty"`
	DominantStage      string             `json:"dominant_stage,omitempty"`
	Shares             map[string]float64 `json:"shares,omitempty"` // culprit key → share of windowed time
	Regimes            []obs.Regime       `json:"regimes,omitempty"`
	Alerts             []Alert            `json:"alerts,omitempty"`
	Profiles           []string           `json:"profiles,omitempty"`
	ProfilesSuppressed int                `json:"profiles_suppressed,omitempty"`
	Windows            []ClusterWindow    `json:"windows"`
	WindowsDropped     int64              `json:"windows_dropped,omitempty"`
}

// Report snapshots the aggregator's full history into a Report.
func (a *Aggregator) Report() Report {
	a.mu.Lock()
	windows := append([]ClusterWindow(nil), a.windows.Items...)
	regimes := append([]obs.Regime(nil), a.regimes.Items...)
	dropped := a.windows.Dropped
	fleetName := a.opts.Fleet
	alerts := make([]Alert, 0, len(a.alerts))
	for _, tr := range a.alerts {
		alerts = append(alerts, tr.snapshot())
	}
	a.mu.Unlock()

	r := BuildReport(fleetName, windows, regimes, dropped)
	r.Alerts = alerts
	if a.opts.Profiler != nil {
		r.Profiles, r.ProfilesSuppressed = a.opts.Profiler.Artifacts()
	}
	return r
}

// BuildReport summarizes a cluster run from its windows and regime log.
// The dominant culprit is the culprit key with the most windowed time
// (obs.Shares: ties break alphabetically on the key).
func BuildReport(fleetName string, windows []ClusterWindow, regimes []obs.Regime, dropped int64) Report {
	r := Report{
		Fleet:          fleetName,
		Dominant:       obs.VerdictIdle,
		Regimes:        regimes,
		Windows:        windows,
		WindowsDropped: dropped,
	}
	if len(windows) == 0 {
		return r
	}
	r.T0 = windows[0].T0
	r.T1 = windows[len(windows)-1].T1

	durs := map[string]float64{}
	for _, w := range windows {
		durs[culpritKey(w.Verdict, w.Node, w.Stage)] += w.Dur
	}
	var dominant string
	r.Shares, dominant = obs.Shares(durs)
	for _, w := range windows {
		if dominant != "" && culpritKey(w.Verdict, w.Node, w.Stage) == dominant {
			r.Dominant, r.DominantNode, r.DominantStage = w.Verdict, w.Node, w.Stage
			break
		}
	}
	return r
}

// Markdown renders the cluster report as a human-readable document.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Cluster diagnosis")
	if r.Fleet != "" {
		fmt.Fprintf(&b, ": %s", r.Fleet)
	}
	fmt.Fprintf(&b, "\n\nDominant regime: **%s**", r.Dominant)
	if r.DominantNode != "" {
		fmt.Fprintf(&b, " at **%s**", r.DominantNode)
		if r.DominantStage != "" {
			fmt.Fprintf(&b, " (%s)", r.DominantStage)
		}
	}
	fmt.Fprintf(&b, " over [%.2fs, %.2fs)", r.T0, r.T1)
	if r.WindowsDropped > 0 {
		fmt.Fprintf(&b, " (%d early windows dropped from the ring)", r.WindowsDropped)
	}
	fmt.Fprintf(&b, "\n")
	obs.WriteSharesAndRegimes(&b, r.Shares, r.Regimes)
	if len(r.Alerts) > 0 {
		fmt.Fprintf(&b, "\n## SLO alerts\n\n")
		fmt.Fprintf(&b, "| slo | state | fired | resolved | last value | burn |\n|---|---|---:|---:|---:|---:|\n")
		for _, a := range r.Alerts {
			fmt.Fprintf(&b, "| `%s` | %s | %d | %d | %.3f | %.2f |\n",
				a.SLO.String(), a.State, a.Fired, a.Resolved, a.Value, a.Burn)
		}
	}

	if len(r.Profiles) > 0 || r.ProfilesSuppressed > 0 {
		fmt.Fprintf(&b, "\n## Profile artifacts\n\n")
		for _, p := range r.Profiles {
			fmt.Fprintf(&b, "- [%s](%s)\n", p, p)
		}
		if r.ProfilesSuppressed > 0 {
			fmt.Fprintf(&b, "- (%d captures suppressed by the rate limit)\n", r.ProfilesSuppressed)
		}
	}

	fmt.Fprintf(&b, "\n## Cluster windows\n\n")
	fmt.Fprintf(&b, "| t0 | t1 | verdict | node | stage | agg Gbps | fair | evidence |\n|---:|---:|---|---|---|---:|---:|---|\n")
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "| %.2f | %.2f | %s | %s | %s | %.2f | %.2f | %s |\n",
			w.T0, w.T1, w.Verdict, w.Node, w.Stage,
			w.Signals.AggGbps, w.Signals.FairShare, strings.Join(w.Evidence, "; "))
	}
	return b.String()
}
