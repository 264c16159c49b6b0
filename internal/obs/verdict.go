package obs

import (
	"fmt"
	"sort"
)

// Verdict names the dominant bottleneck of one window.
type Verdict string

const (
	// VerdictIdle: the window moved no bytes and nothing was blocked.
	VerdictIdle Verdict = "idle"
	// VerdictCompressBound: the compression stage limits throughput —
	// producers back up into the compress queue, or compress workers are
	// the busiest stage.
	VerdictCompressBound Verdict = "compress-bound"
	// VerdictWireBound: the network limits throughput — senders back up
	// into the send queue waiting for wire capacity.
	VerdictWireBound Verdict = "wire-bound"
	// VerdictConsumerBound: the receive side limits throughput — the
	// receiver's queues exert backpressure, or its stages dominate busy
	// time.
	VerdictConsumerBound Verdict = "consumer-bound"
	// VerdictPoolStarved: the buffer pool cannot serve rentals from the
	// local NUMA domain — most gets miss or steal, so the hot path is
	// paying allocation and remote-memory costs.
	VerdictPoolStarved Verdict = "pool-starved"
	// VerdictChurnDegraded: topology or transport churn (reroutes,
	// failovers, redials, quarantines, holes being healed) disrupted the
	// window.
	VerdictChurnDegraded Verdict = "churn-degraded"
)

// Limiter is what classify blamed for a window's verdict — the one
// answer to "what limits this node?" that the fleet's cluster verdict
// and the adaptive controller read instead of working it out again.
// Idle and churn-degraded windows blame nothing and leave it zero.
type Limiter struct {
	// Name is the blamed queue (compq, sendq, recvq, rxq, decq), the
	// busiest stage (compress, send, receive, decompress) or "bufpool".
	Name string `json:"name,omitempty"`
	// Rule is the classify rule that decided: RuleBackpressure,
	// RuleBusiestStage, RuleDeepestQueue or RulePool.
	Rule string `json:"rule,omitempty"`
	// Share is the signal the rule weighed: the queue's producer
	// blocked seconds per second (under blockedShareFloor for
	// RuleDeepestQueue), the stage's busy worker-seconds per second, or
	// the pool's miss share.
	Share float64 `json:"share,omitempty"`
}

// The classify rules a Limiter can name.
const (
	RulePool         = "pool"
	RuleBackpressure = "backpressure"
	RuleBusiestStage = "busiest-stage"
	RuleDeepestQueue = "deepest-queue"
)

// Classifier thresholds. Shares are per wall-second of the window.
const (
	// blockedShareFloor: a queue counts as exerting backpressure when its
	// producers were collectively blocked at least this many seconds per
	// second.
	blockedShareFloor = 0.25
	// busyShareFloor: a stage counts as meaningfully busy when its
	// workers accrued at least this many worker-seconds per second.
	busyShareFloor = 0.05
	// poolMissShareFloor / poolMinGets: the pool counts as starved when
	// at least half the window's rentals (and at least this many of
	// them) missed the local free list.
	poolMissShareFloor = 0.5
	poolMinGets        = 16
)

// queueVerdict maps a backpressured queue to the verdict naming its
// consumer: the stage downstream of the queue is what the blocked
// producers are waiting on.
func queueVerdict(queue string) Verdict {
	switch queue {
	case "compq":
		return VerdictCompressBound
	case "sendq":
		return VerdictWireBound
	default: // recvq/rxq (decompress is the consumer), decq (sink is)
		return VerdictConsumerBound
	}
}

// stageVerdict maps the busiest stage to a verdict for the fallback
// path where nothing is queue-blocked.
func stageVerdict(stage string) Verdict {
	switch stage {
	case "compress":
		return VerdictCompressBound
	case "send":
		return VerdictWireBound
	default: // receive, decompress
		return VerdictConsumerBound
	}
}

// classify fills w.Verdict, w.Limiter and w.Evidence from the window's
// signals, in strict priority order:
//
//  1. idle — no bytes moved, no churn, nothing blocked.
//  2. churn-degraded — any churn events: correctness work (rerouting,
//     healing, dedup) outranks steady-state tuning signals.
//  3. pool-starved — the NUMA pool is missing locally; allocation cost
//     pollutes every downstream signal, so it is named before them.
//  4. backpressure walk — the most-downstream queue whose producers
//     were blocked ≥ blockedShareFloor names its consumer.
//  5. busiest stage — no queue is blocked; the stage with the highest
//     busy share ≥ busyShareFloor is the limit.
//  6. deepest queue — signals too weak for 4/5; the deepest non-empty
//     queue's consumer gets the verdict.
//  7. idle — nothing to say.
func classify(w *Window) {
	blockedAny := false
	for _, q := range w.Queues {
		if q.PutBlockedShare >= blockedShareFloor || q.GetBlockedShare >= blockedShareFloor {
			blockedAny = true
			break
		}
	}
	if w.Bytes == 0 && w.Churn.Total == 0 && !blockedAny {
		w.Verdict = VerdictIdle
		w.Evidence = append(w.Evidence, "no bytes moved, no churn, no blocked time")
		return
	}

	if w.Churn.Total > 0 {
		w.Verdict = VerdictChurnDegraded
		w.Evidence = append(w.Evidence, fmt.Sprintf(
			"%d churn events (reroutes=%d failovers=%d redials=%d conn_drops=%d quarantined=%d dup_drops=%d abandoned=%d)",
			w.Churn.Total, w.Churn.Reroutes, w.Churn.Failovers, w.Churn.Redials,
			w.Churn.ConnDrops, w.Churn.Quarantined, w.Churn.DupDrops, w.Churn.Abandoned))
		return
	}

	if w.Pool.Gets >= poolMinGets && w.Pool.MissShare > poolMissShareFloor {
		w.Verdict = VerdictPoolStarved
		w.Limiter = Limiter{Name: "bufpool", Rule: RulePool, Share: w.Pool.MissShare}
		w.Evidence = append(w.Evidence, fmt.Sprintf(
			"pool miss share %.0f%% over %d gets (misses=%d steals=%d)",
			w.Pool.MissShare*100, w.Pool.Gets, w.Pool.Misses, w.Pool.Steals))
		return
	}

	// Backpressure walk, most-downstream queue first (Queues is sorted
	// upstream→downstream).
	for i := len(w.Queues) - 1; i >= 0; i-- {
		q := w.Queues[i]
		if q.PutBlockedShare >= blockedShareFloor {
			w.Verdict = queueVerdict(q.Queue)
			w.Limiter = Limiter{Name: q.Queue, Rule: RuleBackpressure, Share: q.PutBlockedShare}
			w.Evidence = append(w.Evidence, fmt.Sprintf(
				"%s producers blocked %.2f s/s (depth %.0f)", q.Queue, q.PutBlockedShare, q.Depth))
			return
		}
	}

	// Busiest stage.
	var busiest *StageWindow
	for i := range w.Stages {
		if busiest == nil || w.Stages[i].Busy > busiest.Busy {
			busiest = &w.Stages[i]
		}
	}
	if busiest != nil && busiest.Busy >= busyShareFloor {
		w.Verdict = stageVerdict(busiest.Stage)
		w.Limiter = Limiter{Name: busiest.Stage, Rule: RuleBusiestStage, Share: busiest.Busy}
		ev := fmt.Sprintf("%s is the busiest stage: %.2f worker-s/s", busiest.Stage, busiest.Busy)
		if busiest.Util > 0 {
			ev += fmt.Sprintf(" (util %.0f%%)", busiest.Util*100)
		}
		w.Evidence = append(w.Evidence, ev)
		return
	}

	// Deepest queue.
	if len(w.Queues) > 0 {
		qs := append([]QueueWindow(nil), w.Queues...)
		sort.SliceStable(qs, func(i, j int) bool { return qs[i].Depth > qs[j].Depth })
		if qs[0].Depth > 0 {
			w.Verdict = queueVerdict(qs[0].Queue)
			w.Limiter = Limiter{Name: qs[0].Queue, Rule: RuleDeepestQueue, Share: qs[0].PutBlockedShare}
			w.Evidence = append(w.Evidence, fmt.Sprintf(
				"weak signals; deepest queue %s holds %.0f items", qs[0].Queue, qs[0].Depth))
			return
		}
	}

	w.Verdict = VerdictIdle
	if w.Bytes > 0 {
		w.Evidence = append(w.Evidence, fmt.Sprintf(
			"%d bytes moved but no stage, queue or pool signal cleared its floor", w.Bytes))
	} else {
		w.Evidence = append(w.Evidence, "no signal cleared its floor")
	}
}
