package pipeline

import (
	"sync"

	"numastream/internal/metrics"
)

// Controls exposes a running sender or receiver's elastic worker pools
// to the adaptive placement controller (package adapt). RunSender and
// RunReceiver attach each stage pool as they start it; the controller
// then resizes and re-pins stages by name through the Actuator-shaped
// methods below. One Controls may be reused across consecutive runs
// (pools from a finished run are sealed, so stale actions are no-ops).
type Controls struct {
	mu    sync.Mutex
	pools map[string]*Pool
}

// NewControls returns an empty Controls ready to be passed in
// SenderOptions.Controls or ReceiverOptions.Controls.
func NewControls() *Controls {
	return &Controls{pools: make(map[string]*Pool)}
}

// attach registers (or replaces) the pool for a stage and publishes a
// pool_<stage>_workers gauge when a registry is given. With or without
// a controller (nil c) it publishes <stage>_workers_pinned — how many
// of the stage's workers own a pinned OS thread — so a /status reader
// can tell a run whose placement took effect from one where the host
// left nothing to place.
func (c *Controls) attach(stage string, p *Pool, reg *metrics.Registry) {
	if p == nil {
		return
	}
	if reg != nil {
		reg.RegisterGauge(stage+"_workers_pinned", func() float64 { return float64(p.Pinned()) })
	}
	if c == nil {
		return
	}
	c.mu.Lock()
	c.pools[stage] = p
	c.mu.Unlock()
	if reg != nil {
		stage := stage
		reg.RegisterGauge("pool_"+stage+"_workers", func() float64 {
			return float64(c.pool(stage).liveOrZero())
		})
	}
}

func (p *Pool) liveOrZero() int {
	if p == nil {
		return 0
	}
	return p.Live()
}

// pool returns the stage's pool or nil.
func (c *Controls) pool(stage string) *Pool {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pools[stage]
}

// Pool returns the live pool for a stage ("compress", "send",
// "receive", "decompress"), or nil when that stage is not running.
func (c *Controls) Pool(stage string) *Pool { return c.pool(stage) }

// Stages lists the attached stage names (order unspecified).
func (c *Controls) Stages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.pools))
	for s := range c.pools {
		out = append(out, s)
	}
	return out
}

// Workers returns the stage's target worker count (0 when absent).
func (c *Controls) Workers(stage string) int {
	p := c.pool(stage)
	if p == nil {
		return 0
	}
	return p.Active()
}

// DomainWorkers returns the stage's target per-domain worker counts.
func (c *Controls) DomainWorkers(stage string) map[int]int {
	p := c.pool(stage)
	if p == nil {
		return nil
	}
	return p.DomainWorkers()
}

// Grow adds up to n workers to the stage on the given domain (-1 =
// follow the stage's original placement). Returns how many were added.
func (c *Controls) Grow(stage string, n, domain int) int {
	p := c.pool(stage)
	if p == nil {
		return 0
	}
	return p.Grow(n, domain)
}

// Shrink retires up to n workers from the stage, preferring the given
// domain (-1 = any). Returns how many were marked to retire.
func (c *Controls) Shrink(stage string, n, domain int) int {
	p := c.pool(stage)
	if p == nil {
		return 0
	}
	return p.Shrink(n, domain)
}
