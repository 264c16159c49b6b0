package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// SLO is one declarative objective over the cluster signals, evaluated
// per cluster window with burn-rate semantics: the alert fires when at
// least FireBurn of the last BurnWindow windows breached, and resolves
// after ClearWindows consecutive clean windows.
type SLO struct {
	// Name labels the alert (defaults to Metric).
	Name string `json:"name"`
	// Metric selects the signal: e2e_p99_ms, agg_gbps, fair_share,
	// holes, quarantined, churn, hop_delay.
	Metric string `json:"metric"`
	// Op is "<=" (budget: breach above Threshold) or ">=" (floor:
	// breach below Threshold).
	Op string `json:"op"`
	// Threshold is the budget or floor value.
	Threshold float64 `json:"threshold"`
	// BurnWindow is the evaluation ring length; <= 0 means
	// DefaultBurnWindow.
	BurnWindow int `json:"burn_window,omitempty"`
	// FireBurn is the breach fraction that fires; <= 0 means
	// DefaultFireBurn.
	FireBurn float64 `json:"fire_burn,omitempty"`
	// ClearWindows is the consecutive-clean count that resolves; <= 0
	// means DefaultClearWindows.
	ClearWindows int `json:"clear_windows,omitempty"`
}

// SLO evaluation defaults.
const (
	DefaultBurnWindow   = 4
	DefaultFireBurn     = 0.5
	DefaultClearWindows = 2
)

// sloMetrics maps a metric name to its extractor.
var sloMetrics = map[string]func(Signals) float64{
	"e2e_p99_ms":  func(s Signals) float64 { return s.E2EP99Ms },
	"agg_gbps":    func(s Signals) float64 { return s.AggGbps },
	"fair_share":  func(s Signals) float64 { return s.FairShare },
	"holes":       func(s Signals) float64 { return float64(s.Holes) },
	"quarantined": func(s Signals) float64 { return float64(s.Quarantined) },
	"churn":       func(s Signals) float64 { return float64(s.Churn) },
	"hop_delay":   func(s Signals) float64 { return s.MaxHopDelayShare },
}

// String renders the SLO in the -slo flag's DSL.
func (s SLO) String() string {
	return fmt.Sprintf("%s%s%g", s.Metric, s.Op, s.Threshold)
}

// breached reports whether value violates the objective.
func (s SLO) breached(value float64) bool {
	if s.Op == ">=" {
		return value < s.Threshold
	}
	return value > s.Threshold
}

// ParseSLOs parses the -slo flag DSL: a comma-separated list of
// "metric<=budget" or "metric>=floor" clauses, e.g.
// "e2e_p99_ms<=250,fair_share>=0.5,holes<=0". Unknown metrics are an
// error — a typo'd objective that can never fire is worse than none.
func ParseSLOs(spec string) ([]SLO, error) {
	var out []SLO
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		op := "<="
		i := strings.Index(clause, "<=")
		if i < 0 {
			op = ">="
			i = strings.Index(clause, ">=")
		}
		if i < 0 {
			return nil, fmt.Errorf("fleet: SLO clause %q needs <= or >=", clause)
		}
		metric := strings.TrimSpace(clause[:i])
		if _, ok := sloMetrics[metric]; !ok {
			known := make([]string, 0, len(sloMetrics))
			for m := range sloMetrics {
				known = append(known, m)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("fleet: unknown SLO metric %q (known: %s)", metric, strings.Join(known, ", "))
		}
		thr, err := strconv.ParseFloat(strings.TrimSpace(clause[i+2:]), 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: SLO clause %q: bad threshold: %v", clause, err)
		}
		out = append(out, SLO{Name: metric, Metric: metric, Op: op, Threshold: thr})
	}
	return out, nil
}

// AlertState is an alert's place in the ok→warn→firing machine.
type AlertState string

const (
	AlertOK     AlertState = "ok"
	AlertWarn   AlertState = "warn"   // breaching, burn below the firing fraction
	AlertFiring AlertState = "firing" // burn at or past the firing fraction
)

// Alert is one SLO's live state, served at /alerts and folded into the
// cluster report.
type Alert struct {
	SLO      SLO        `json:"slo"`
	State    AlertState `json:"state"`
	Since    float64    `json:"since,omitempty"` // when the current state began
	Value    float64    `json:"value"`           // last evaluated signal value
	Burn     float64    `json:"burn"`            // breach fraction over the burn window
	Fired    int        `json:"fired"`           // times the alert entered firing
	Resolved int        `json:"resolved"`        // times it returned to ok from firing
}

// alertTracker runs one SLO's burn-rate state machine.
type alertTracker struct {
	slo   SLO
	ring  []bool // breach history, len == BurnWindow once warm
	idx   int
	warm  int // observations folded, caps at BurnWindow
	clean int // consecutive clean windows

	state    AlertState
	since    float64
	value    float64
	burn     float64
	fired    int
	resolved int
}

func newAlertTracker(s SLO) *alertTracker {
	if s.Name == "" {
		s.Name = s.Metric
	}
	if s.BurnWindow <= 0 {
		s.BurnWindow = DefaultBurnWindow
	}
	if s.FireBurn <= 0 {
		s.FireBurn = DefaultFireBurn
	}
	if s.ClearWindows <= 0 {
		s.ClearWindows = DefaultClearWindows
	}
	return &alertTracker{
		slo:   s,
		ring:  make([]bool, s.BurnWindow),
		state: AlertOK,
	}
}

// observe folds one window's signals in; the return value reports
// whether the alert transitioned into firing (the profile-capture
// trigger). Resolution demands ClearWindows consecutive clean windows,
// and resets the burn ring so a fresh incident must re-earn its burn.
func (t *alertTracker) observe(at float64, sig Signals) (entered bool) {
	extract := sloMetrics[t.slo.Metric]
	if extract == nil {
		return false
	}
	t.value = extract(sig)
	breach := t.slo.breached(t.value)

	t.ring[t.idx] = breach
	t.idx = (t.idx + 1) % len(t.ring)
	if t.warm < len(t.ring) {
		t.warm++
	}
	breaches := 0
	for i := 0; i < t.warm; i++ {
		if t.ring[i] {
			breaches++
		}
	}
	t.burn = float64(breaches) / float64(len(t.ring))
	if breach {
		t.clean = 0
	} else {
		t.clean++
	}

	switch t.state {
	case AlertOK:
		if t.burn >= t.slo.FireBurn {
			t.state, t.since, t.fired = AlertFiring, at, t.fired+1
			return true
		}
		if breach {
			t.state, t.since = AlertWarn, at
		}
	case AlertWarn:
		if t.burn >= t.slo.FireBurn {
			t.state, t.since, t.fired = AlertFiring, at, t.fired+1
			return true
		}
		if breaches == 0 {
			t.state, t.since = AlertOK, at
		}
	case AlertFiring:
		if t.clean >= t.slo.ClearWindows {
			t.state, t.since, t.resolved = AlertOK, at, t.resolved+1
			t.clean = 0
			for i := range t.ring {
				t.ring[i] = false
			}
			t.warm, t.idx, t.burn = 0, 0, 0
		}
	}
	return false
}

func (t *alertTracker) snapshot() Alert {
	return Alert{
		SLO:      t.slo,
		State:    t.state,
		Since:    t.since,
		Value:    t.value,
		Burn:     t.burn,
		Fired:    t.fired,
		Resolved: t.resolved,
	}
}
