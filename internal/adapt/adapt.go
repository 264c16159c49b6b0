// Package adapt closes the observability loop: an online adaptive
// placement controller that subscribes to the obs engine's window
// stream and resizes or re-pins the pipeline's elastic worker pools at
// runtime — grow compress while the send queue starves, migrate send
// workers toward the NIC domain when wire-bound, split decompress
// across domains under memory-controller pressure.
//
// The controller is a deliberately boring state machine: it acts only
// after Hysteresis consecutive windows of the same verdict, waits out a
// Cooldown on the window clock between actions, moves at most MaxStep
// workers per action, and stays silent inside the do-nothing band
// (blocked shares below ActFloor). Because every input is a completed
// obs.Window — stamped in wall seconds on real runs and virtual
// seconds in the simulator — the same controller drives both, and a
// virtual-time drill replays byte-identically.
package adapt

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"numastream/internal/obs"
)

// Actuator is what the controller acts through: the live pipeline's
// pipeline.Controls, or the simulator's stage controls. Stage names are
// the pipeline's: "compress", "send", "receive", "decompress".
type Actuator interface {
	// Workers returns the stage's current target worker count (0 when
	// the stage is absent).
	Workers(stage string) int
	// DomainWorkers returns the stage's target per-domain counts.
	DomainWorkers(stage string) map[int]int
	// Grow adds up to n workers on the given domain (-1 = stage
	// default placement) and returns how many were added.
	Grow(stage string, n, domain int) int
	// Shrink retires up to n workers, preferring the given domain
	// (-1 = any), and returns how many were marked.
	Shrink(stage string, n, domain int) int
}

// Op names what an Action did.
type Op string

const (
	OpGrow    Op = "grow"
	OpShrink  Op = "shrink"
	OpMigrate Op = "migrate"
)

// Action is one controller decision that actually moved workers,
// stamped with the triggering window's end time.
type Action struct {
	T       float64 `json:"t"`     // window clock (seconds)
	Stage   string  `json:"stage"` // pipeline stage acted on
	Op      Op      `json:"op"`
	N       int     `json:"n"`       // workers moved
	Domain  int     `json:"domain"`  // target domain (-1 = stage default)
	From    int     `json:"from"`    // migrate source domain (-1 otherwise)
	Workers int     `json:"workers"` // stage target count after the action
	Reason  string  `json:"reason"`
}

// String renders one action log line (deterministic: every field comes
// from the window or the policy, never the wall clock).
func (a Action) String() string {
	var where string
	switch a.Op {
	case OpMigrate:
		where = fmt.Sprintf(" dom%d->dom%d", a.From, a.Domain)
	default:
		if a.Domain >= 0 {
			where = fmt.Sprintf(" @dom%d", a.Domain)
		}
	}
	return fmt.Sprintf("t=%.3fs %s %s %d%s (workers %d): %s",
		a.T, a.Op, a.Stage, a.N, where, a.Workers, a.Reason)
}

// FormatActions renders the action log, one line per action.
func FormatActions(actions []Action) string {
	var b strings.Builder
	for _, a := range actions {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Policy is the controller's tuning. The zero value is unusable; start
// from DefaultPolicy.
type Policy struct {
	// Hysteresis is how many consecutive windows must carry the same
	// verdict before the controller considers acting on it. One noisy
	// window never moves a worker.
	Hysteresis int
	// Cooldown is the minimum window-clock seconds between actions —
	// long enough for the previous action's effect to show up in the
	// windows before the controller reads them again.
	Cooldown float64
	// MaxStep bounds how many workers one action may move.
	MaxStep int
	// ActFloor is the do-nothing band's edge: a verdict acts only when
	// the blocked share of the queue its window's limiter names is at
	// least this (the obs classifier blames queues from 0.25 up; acting
	// needs a harder signal).
	ActFloor float64
	// MaxWorkers / MinWorkers bound each stage's size (Max 0 =
	// unbounded, Min 0 = 1).
	MaxWorkers map[string]int
	MinWorkers map[string]int
	// Domains is the host's NUMA domain id set, the universe Grow
	// targets are chosen from. Empty means "no domain knowledge": all
	// growth follows the stage's original placement and migrations are
	// disabled.
	Domains []int
	// NICDomain is the domain owning the data NIC — where wire-bound
	// migration sends workers. -1 disables wire-bound migration.
	NICDomain int
	// IdleShrink lets sustained idle verdicts shrink the receive pool
	// (donating workers back to the OS). Off by default: drills want
	// zero actions on an already-tuned config.
	IdleShrink bool
}

// DefaultPolicy returns the tuning used by the real binaries: act after
// 3 consistent windows, at most 2 workers per action, ≥ 2s apart.
func DefaultPolicy() Policy {
	return Policy{
		Hysteresis: 3,
		Cooldown:   2.0,
		MaxStep:    2,
		ActFloor:   0.35,
		NICDomain:  -1,
	}
}

// normalize fills unset fields with DefaultPolicy values so a partial
// policy is safe to run.
func (p Policy) normalize() Policy {
	d := DefaultPolicy()
	if p.Hysteresis <= 0 {
		p.Hysteresis = d.Hysteresis
	}
	if p.Cooldown <= 0 {
		p.Cooldown = d.Cooldown
	}
	if p.MaxStep <= 0 {
		p.MaxStep = d.MaxStep
	}
	if p.ActFloor <= 0 {
		p.ActFloor = d.ActFloor
	}
	return p
}

// View is the pool state Decide reasons over — a read-only copy of the
// actuator's answers, so Decide itself stays pure and fuzzable.
type View struct {
	Workers map[string]int
	Domains map[string]map[int]int
}

// ViewOf snapshots an actuator.
func ViewOf(act Actuator, stages ...string) View {
	v := View{Workers: map[string]int{}, Domains: map[string]map[int]int{}}
	for _, s := range stages {
		v.Workers[s] = act.Workers(s)
		v.Domains[s] = act.DomainWorkers(s)
	}
	return v
}

// Step is one intended pool mutation, before the actuator clips it.
type Step struct {
	Stage  string
	Op     Op
	N      int
	Domain int // target domain (-1 = stage default)
	From   int // migrate source (-1 otherwise)
	Reason string
}

// leastLoaded picks the domain from universe with the fewest workers in
// have (ties to the lowest id); -1 when the universe is empty.
func leastLoaded(have map[int]int, universe []int) int {
	best, bestN := -1, math.MaxInt
	for _, d := range universe {
		n := have[d]
		if n < bestN || (n == bestN && d < best) {
			best, bestN = d, n
		}
	}
	return best
}

// busiestOff returns the most-populated domain in have other than keep,
// with its count; (-1, 0) when none.
func busiestOff(have map[int]int, keep int) (int, int) {
	doms := make([]int, 0, len(have))
	for d := range have {
		doms = append(doms, d)
	}
	sort.Ints(doms)
	best, bestN := -1, 0
	for _, d := range doms {
		if d == keep {
			continue
		}
		if have[d] > bestN {
			best, bestN = d, have[d]
		}
	}
	return best, bestN
}

// grow is the step adding up to MaxStep workers to a running stage on
// domain, clipped to the stage's MaxWorkers cap; none when the stage is
// absent or full.
func grow(pol Policy, v View, stage string, domain int, reason string) []Step {
	n := pol.MaxStep
	if max, ok := pol.MaxWorkers[stage]; ok && max > 0 {
		if room := max - v.Workers[stage]; room < n {
			n = room
		}
	}
	if v.Workers[stage] <= 0 || n <= 0 {
		return nil
	}
	return []Step{{Stage: stage, Op: OpGrow, N: n, Domain: domain, Reason: reason}}
}

// Decide maps one window (after hysteresis and cooldown have been
// satisfied by the caller) to the steps it warrants. A queue verdict
// acts on the window's obs.Limiter — the queue the classifier blamed
// and its blocked share — never on a queue of its own choosing. Pure:
// no clocks, no I/O, total on degenerate windows — the fuzz target.
func Decide(pol Policy, w obs.Window, v View) []Step {
	pol = pol.normalize()
	if v.Workers == nil {
		v.Workers = map[string]int{}
	}
	switch w.Verdict {
	case obs.VerdictCompressBound, obs.VerdictWireBound, obs.VerdictConsumerBound:
		// Act on the queue the classifier blamed, and only past the
		// do-nothing band (NaN/Inf from a zero-width window reads 0).
		queue, share := w.Limiter.Name, w.Limiter.Share
		if math.IsNaN(share) || math.IsInf(share, 0) || share < pol.ActFloor {
			return nil
		}
		reason := fmt.Sprintf("%s producers blocked %.2f s/s", queue, share)
		switch queue {
		case "compq":
			// Producers starve upstream of a thin compress pool — grow
			// it where there is room.
			return grow(pol, v, "compress", leastLoaded(v.Domains["compress"], pol.Domains), reason)
		case "decq":
			// decq full: decompress is thin.
			return grow(pol, v, "decompress", leastLoaded(v.Domains["decompress"], pol.Domains), reason)
		case "recvq", "rxq":
			// The receive queues full: the receive pool is thin. Grow it
			// toward the NIC domain — the frames land there.
			dom := pol.NICDomain
			if dom < 0 {
				dom = leastLoaded(v.Domains["receive"], pol.Domains)
			}
			return grow(pol, v, "receive", dom, reason)
		case "sendq":
			// The wire itself is physics; the only placement lever is
			// moving send workers onto the NIC's domain so frames stop
			// crossing the interconnect on their way out.
			if pol.NICDomain < 0 {
				return nil
			}
			from, off := busiestOff(v.Domains["send"], pol.NICDomain)
			if from < 0 || off <= 0 {
				return nil // already all on the NIC domain: nothing to move
			}
			n := pol.MaxStep
			if off < n {
				n = off
			}
			return []Step{{
				Stage: "send", Op: OpMigrate, N: n,
				Domain: pol.NICDomain, From: from,
				Reason: fmt.Sprintf("%s with %d send workers off the NIC domain", reason, off),
			}}
		}
		return nil

	case obs.VerdictPoolStarved:
		// Memory-controller pressure: every buffer rental missing the
		// local free list. Splitting decompress across domains spreads
		// the page traffic over both controllers (paper Obs. 3).
		if len(pol.Domains) < 2 {
			return nil
		}
		have := v.Domains["decompress"]
		loaded := -1
		total := 0
		for d, n := range have {
			total += n
			if loaded < 0 || n > have[loaded] || (n == have[loaded] && d < loaded) {
				loaded = d
			}
		}
		// Act only when the pool is lopsided: one domain holds all of
		// a multi-worker stage.
		if loaded < 0 || total < 2 || have[loaded] != total {
			return nil
		}
		to := leastLoaded(have, pol.Domains)
		if to < 0 || to == loaded {
			return nil
		}
		n := total / 2
		if n > pol.MaxStep {
			n = pol.MaxStep
		}
		if n <= 0 {
			return nil
		}
		return []Step{{
			Stage: "decompress", Op: OpMigrate, N: n, Domain: to, From: loaded,
			Reason: "bufpool starved: splitting decompress across domains",
		}}

	case obs.VerdictIdle:
		if !pol.IdleShrink || v.Workers["receive"] <= 1 {
			return nil
		}
		min := pol.MinWorkers["receive"]
		if min <= 0 {
			min = 1
		}
		if v.Workers["receive"] <= min {
			return nil
		}
		return []Step{{
			Stage: "receive", Op: OpShrink, N: 1, Domain: -1,
			Reason: "sustained idle: donating a receive worker",
		}}
	}
	// churn-degraded (transport trouble, not placement) and unknown
	// verdicts: placement cannot help.
	return nil
}

// Controller is the runtime state machine around Decide: hysteresis,
// cooldown, the action log. Subscribe it via obs.Options.OnWindow.
type Controller struct {
	mu      sync.Mutex
	pol     Policy
	act     Actuator
	verdict obs.Verdict
	streak  int
	acted   bool
	lastT   float64
	actions []Action
}

// New builds a controller driving act under pol.
func New(pol Policy, act Actuator) *Controller {
	return &Controller{pol: pol.normalize(), act: act}
}

// stages the controller manages.
var stages = []string{"compress", "send", "receive", "decompress"}

// OnWindow feeds one completed window through the state machine,
// possibly acting. Safe for concurrent use; actions execute under the
// controller's lock, never on a chunk path.
func (c *Controller) OnWindow(w obs.Window) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if w.Verdict == c.verdict {
		c.streak++
	} else {
		c.verdict, c.streak = w.Verdict, 1
	}
	if c.streak < c.pol.Hysteresis {
		return
	}
	if c.acted && w.T1-c.lastT < c.pol.Cooldown {
		return
	}

	view := ViewOf(c.act, stages...)
	steps := Decide(c.pol, w, view)
	actedNow := false
	for _, s := range steps {
		var applied int
		from := -1
		switch s.Op {
		case OpGrow:
			applied = c.act.Grow(s.Stage, s.N, s.Domain)
		case OpShrink:
			applied = c.act.Shrink(s.Stage, s.N, s.Domain)
		case OpMigrate:
			// Grow on the target first, then retire the same number at
			// the source — the stage never dips below its pre-action
			// size, so no in-flight chunk loses its worker cohort.
			applied = c.act.Grow(s.Stage, s.N, s.Domain)
			if applied > 0 {
				c.act.Shrink(s.Stage, applied, s.From)
			}
			from = s.From
		}
		if applied == 0 {
			continue // clipped to nothing (cap reached, pool sealed): not an action
		}
		actedNow = true
		c.actions = append(c.actions, Action{
			T: w.T1, Stage: s.Stage, Op: s.Op, N: applied,
			Domain: s.Domain, From: from, Workers: c.act.Workers(s.Stage), Reason: s.Reason,
		})
	}
	if actedNow {
		c.acted, c.lastT = true, w.T1
		c.streak = 0 // re-earn the hysteresis before acting again
	}
}

// Actions returns a copy of the action log, oldest first.
func (c *Controller) Actions() []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Action(nil), c.actions...)
}
