package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Report is the end-of-run self-diagnosis artifact: every retained
// window with its verdict, the regime transitions between them, and the
// dominant verdict — the one that governed the most run time.
type Report struct {
	Node           string             `json:"node,omitempty"`
	T0             float64            `json:"t0_run"`
	T1             float64            `json:"t1_run"`
	Dominant       Verdict            `json:"dominant"`
	Shares         map[string]float64 `json:"shares,omitempty"` // verdict → share of windowed time
	Regimes        []Regime           `json:"regimes,omitempty"`
	Windows        []Window           `json:"windows"`
	WindowsDropped int64              `json:"windows_dropped,omitempty"`
}

// BuildReport summarizes a run from its windows and regime log.
func BuildReport(node string, windows []Window, regimes []Regime, dropped int64) Report {
	r := Report{
		Node:           node,
		Dominant:       VerdictIdle,
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
		durs[string(w.Verdict)] += w.Dur
	}
	var dominant string
	if r.Shares, dominant = Shares(durs); dominant != "" {
		r.Dominant = Verdict(dominant)
	}
	return r
}

// Report snapshots the engine's full history into a Report.
func (e *Engine) Report() Report {
	e.mu.Lock()
	windows := append([]Window(nil), e.windows.Items...)
	regimes := append([]Regime(nil), e.regimes.Items...)
	dropped := e.windows.Dropped
	node := e.opts.Node
	e.mu.Unlock()
	return BuildReport(node, windows, regimes, dropped)
}

// Markdown renders the report as a human-readable document: summary,
// regime log, and a table with one row — and one verdict — per window.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Run self-diagnosis")
	if r.Node != "" {
		fmt.Fprintf(&b, ": %s", r.Node)
	}
	fmt.Fprintf(&b, "\n\nDominant regime: **%s** over [%.2fs, %.2fs)", r.Dominant, r.T0, r.T1)
	if r.WindowsDropped > 0 {
		fmt.Fprintf(&b, " (%d early windows dropped from the ring)", r.WindowsDropped)
	}
	fmt.Fprintf(&b, "\n")
	WriteSharesAndRegimes(&b, r.Shares, r.Regimes)
	fmt.Fprintf(&b, "\n## Windows\n\n")
	fmt.Fprintf(&b, "| t0 | t1 | verdict | Gbps | evidence |\n|---:|---:|---|---:|---|\n")
	for _, w := range r.Windows {
		gbps := 0.0
		for _, st := range w.Stages {
			if st.Gbps > gbps {
				gbps = st.Gbps
			}
		}
		if gbps == 0 && w.Dur > 0 {
			gbps = float64(w.Bytes) * 8 / 1e9 / w.Dur
		}
		fmt.Fprintf(&b, "| %.2f | %.2f | %s | %.2f | %s |\n",
			w.T0, w.T1, w.Verdict, gbps, strings.Join(w.Evidence, "; "))
	}
	return b.String()
}

// WriteReportFile writes a report to path: its Markdown when the path
// ends in ".md", indented JSON otherwise. Every report type takes this
// one writer: obs's, the adaptive controller's and the fleet's.
func WriteReportFile(path string, r interface{ Markdown() string }) error {
	var data []byte
	if strings.HasSuffix(path, ".md") {
		data = []byte(r.Markdown())
	} else {
		var err error
		data, err = json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
	}
	return os.WriteFile(path, data, 0o644)
}
