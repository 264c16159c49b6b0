package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// History bounds, shared by a node's engine and the fleet aggregator:
// DefaultWindowCap windows (2 minutes at the engine's default interval)
// and DefaultRegimeCap regime transitions.
const (
	DefaultWindowCap = 240
	DefaultRegimeCap = 256
)

// Regime is one transition of a run's bottleneck regime: at T seconds on
// the run's clock the regime stopped being From and became To. A node's
// regime key is its verdict; the cluster's is "verdict@node:stage".
type Regime struct {
	T        float64  `json:"t"`
	From     string   `json:"from"`
	To       string   `json:"to"`
	Evidence []string `json:"evidence,omitempty"`
}

// Ring is a bounded history: past its cap the oldest entries fall off
// the front, and Dropped counts them so a report states what it no
// longer shows.
type Ring[T any] struct {
	Items   []T
	Dropped int64
}

// Add appends x, trims the ring to max entries and returns how many
// entries this call dropped.
func (r *Ring[T]) Add(x T, max int) int64 {
	r.Items = append(r.Items, x)
	over := len(r.Items) - max
	if over <= 0 {
		return 0
	}
	r.Items = append(r.Items[:0], r.Items[over:]...)
	r.Dropped += int64(over)
	return int64(over)
}

// Shares turns windowed seconds per regime key into each key's share of
// the total, and names the dominant key: the largest share, ties to the
// key that sorts first. A run with no windowed time has no shares and
// dominant "".
func Shares(durs map[string]float64) (map[string]float64, string) {
	total := 0.0
	keys := make([]string, 0, len(durs))
	for k, d := range durs {
		total += d
		keys = append(keys, k)
	}
	if total <= 0 {
		return nil, ""
	}
	sort.Strings(keys)
	shares := make(map[string]float64, len(keys))
	dominant, best := "", -1.0
	for _, k := range keys {
		shares[k] = durs[k] / total
		if shares[k] > best {
			dominant, best = k, shares[k]
		}
	}
	return shares, dominant
}

// WriteSharesAndRegimes renders a report's shares (largest first, ties
// in key order) and its regime transitions as Markdown.
func WriteSharesAndRegimes(b *strings.Builder, shares map[string]float64, regimes []Regime) {
	if len(shares) > 0 {
		keys := make([]string, 0, len(shares))
		for k := range shares {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if shares[keys[i]] != shares[keys[j]] {
				return shares[keys[i]] > shares[keys[j]]
			}
			return keys[i] < keys[j]
		})
		fmt.Fprintf(b, "\n")
		for _, k := range keys {
			fmt.Fprintf(b, "- %s: %.0f%% of windowed time\n", k, shares[k]*100)
		}
	}
	if len(regimes) > 0 {
		fmt.Fprintf(b, "\n## Regime transitions\n\n")
		for _, t := range regimes {
			fmt.Fprintf(b, "- t=%.2fs: %s → %s", t.T, t.From, t.To)
			if len(t.Evidence) > 0 {
				fmt.Fprintf(b, " — %s", strings.Join(t.Evidence, "; "))
			}
			fmt.Fprintf(b, "\n")
		}
	}
}

// Loop runs an observer's tick on the wall clock: Start calls it every
// interval on its own goroutine, and Stop halts that goroutine and calls
// it once more so the tail of the run is recorded. Stop is idempotent.
type Loop struct {
	once       sync.Once
	stop, done chan struct{}
}

// Start launches the ticking goroutine.
func (l *Loop) Start(every time.Duration, tick func()) {
	l.stop, l.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick()
			case <-l.stop:
				return
			}
		}
	}()
}

// Stop halts the goroutine, if Start launched one, and ticks once more.
func (l *Loop) Stop(tick func()) {
	l.once.Do(func() {
		if l.stop != nil {
			close(l.stop)
			<-l.done
		}
		tick()
	})
}
