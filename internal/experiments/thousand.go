package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"numastream/internal/faults"
	"numastream/internal/metrics"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
	"numastream/internal/sim"

	hostnuma "numastream/internal/numa"
)

// Thousand-stream gateway drills: the scale counterpart of the churn
// drills. Where churn proves exactly-once accounting survives topology
// events, these prove the sharded gateway survives stream count — a
// thousand concurrent streams must all close their ledgers, and no
// stream may be starved below its fair share of gateway service. The
// simulator drill is fully deterministic on virtual time (the same
// seed renders byte-identical JSON); the loopback drill runs real
// senders over real sockets through the real sharded receive path.

// ThousandStreamConfig parameterizes both drills. Zero values take the
// defaults noted per field.
type ThousandStreamConfig struct {
	Streams    int     // concurrent streams (default 1000)
	Chunks     int     // chunks per stream (default 100)
	ChunkBytes int     // bytes per chunk (default 64 KiB)
	QPS        float64 // sim: per-stream chunk production rate (default 100)
	// Shards is the gateway receive-shard count. The sim default is a
	// fixed 4 — deliberately host-independent so the same seed renders
	// the same bytes on any machine; the loopback default is
	// pipeline.ShardsAuto (NUMA-aligned).
	Shards         int
	Credit         int   // per-stream credit window (default pipeline.DefaultStreamCredit)
	MaxStreams     int   // admission cap; 0 = unlimited (loopback supports only 0)
	StreamCap      int   // registry per-stream series cap (default metrics.DefaultStreamCap)
	MaxConcurrency int   // cap on concurrently active streams; 0 = all at once
	Seed           int64 // drives victim choice, jitter, and fault randomness
	Plan           faults.Plan
	// Registry, when non-nil, is the metrics registry the loopback
	// drill's gateway records into instead of a private one — the hook
	// that lets loadgen serve live /metrics, /status and /cluster while a
	// soak runs. Each sender keeps a registry of its own, as a separate
	// process would, so the gateway's series are the gateway's alone. The
	// sim ignores it (virtual time has nothing live to scrape).
	Registry *metrics.Registry
	// Controls, when non-nil, receives the loopback gateway's elastic
	// worker pools — the hook that lets loadgen run the adaptive
	// placement controller against a live soak. The sim ignores it.
	Controls *pipeline.Controls
}

func (c ThousandStreamConfig) withDefaults(mode string) ThousandStreamConfig {
	if c.Streams <= 0 {
		c.Streams = 1000
	}
	if c.Chunks <= 0 {
		c.Chunks = 100
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 64 << 10
	}
	if c.QPS <= 0 {
		c.QPS = 100
	}
	if c.Shards == 0 {
		if mode == "sim" {
			c.Shards = 4
		} else {
			c.Shards = pipeline.ShardsAuto
		}
	}
	if c.Credit <= 0 {
		c.Credit = pipeline.DefaultStreamCredit
	}
	if c.StreamCap <= 0 {
		c.StreamCap = metrics.DefaultStreamCap
	}
	return c
}

// ThousandStreamStat is one stream's row in the drill report.
type ThousandStreamStat struct {
	Stream    uint32  `json:"stream"`
	Chunks    int64   `json:"chunks"`
	Bytes     int64   `json:"bytes"`
	Gbps      float64 `json:"gbps"`
	MeanLatMs float64 `json:"mean_lat_ms,omitempty"` // sim: virtual arrival→completion
	Dups      int64   `json:"dups,omitempty"`
}

// ThousandStreamResult is one drill run. Sim results carry only
// virtual-time quantities, so the same config and seed marshal to
// byte-identical JSON.
type ThousandStreamResult struct {
	Mode       string               `json:"mode"` // "sim" or "loopback"
	Seed       int64                `json:"seed"`
	Streams    int                  `json:"streams"`
	Chunks     int                  `json:"chunks_per_stream"`
	ChunkBytes int                  `json:"chunk_bytes"`
	Shards     int                  `json:"shards"`
	Credit     int                  `json:"credit"`
	FaultPlan  string               `json:"fault_plan,omitempty"`
	Admitted   int64                `json:"admitted"`
	Rejected   int64                `json:"rejected"`
	Delivered  int64                `json:"delivered"`
	Dups       int64                `json:"dups,omitempty"`
	Holes      int                  `json:"holes"`
	Abandoned  int64                `json:"abandoned"`
	HorizonSec float64              `json:"horizon_sec"`
	AggGbps    float64              `json:"agg_gbps"`
	FairGbps   float64              `json:"fair_gbps"`
	MinGbps    float64              `json:"min_gbps"`
	MaxGbps    float64              `json:"max_gbps"`
	MinShare   float64              `json:"min_share"` // MinGbps / FairGbps
	PerStream  []ThousandStreamStat `json:"per_stream"`
}

// JSON renders the machine-readable report: indented, key order fixed
// by the struct, trailing newline — the byte-identical artifact the
// determinism drill compares.
func (r ThousandStreamResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Check asserts the drill's acceptance contract: the ledger closed on
// every admitted stream (no holes, no abandoned accounting, full
// delivery) and the slowest stream kept at least minShare of the fair
// per-stream throughput.
func (r ThousandStreamResult) Check(minShare float64) error {
	if r.Holes != 0 {
		return fmt.Errorf("thousand-stream %s: %d ledger holes", r.Mode, r.Holes)
	}
	if r.Abandoned != 0 {
		return fmt.Errorf("thousand-stream %s: %d abandoned ledger slots", r.Mode, r.Abandoned)
	}
	want := r.Admitted * int64(r.Chunks)
	if r.Delivered != want {
		return fmt.Errorf("thousand-stream %s: delivered %d of %d", r.Mode, r.Delivered, want)
	}
	if minShare > 0 && r.MinShare < minShare {
		return fmt.Errorf("thousand-stream %s: slowest stream at %.0f%% of fair share (floor %.0f%%)",
			r.Mode, r.MinShare*100, minShare*100)
	}
	return nil
}

// simFaultTables maps a fault plan onto per-stream sim behaviour, with
// victims chosen by the drill's seeded RNG:
//
//   - Stall: the victim's production pauses for the stall length at the
//     triggering chunk (a consumer-side hiccup, seen as a late tail).
//   - Reset: the victim retransmits its in-flight credit window after
//     the trigger — the duplicate shape a connection reset produces.
//   - Corrupt: the triggering chunk is quarantined and re-sent — one
//     duplicate delivery a period later.
//
// Refuse windows are a listener-restart shape with no sim equivalent;
// they apply only to the loopback drill's real listeners.
type simFaults struct {
	stallAt  map[uint32]int
	stallFor map[uint32]float64
	resetAt  map[uint32]int
	corrupt  map[uint32]map[int]bool
}

func buildSimFaults(cfg ThousandStreamConfig, rng *rand.Rand, period float64) simFaults {
	sf := simFaults{
		stallAt:  map[uint32]int{},
		stallFor: map[uint32]float64{},
		resetAt:  map[uint32]int{},
		corrupt:  map[uint32]map[int]bool{},
	}
	for _, f := range cfg.Plan.Faults {
		victim := uint32(rng.Intn(cfg.Streams))
		idx := 0
		if f.AfterWrites > 0 {
			idx = int(f.AfterWrites - 1)
		} else if cfg.ChunkBytes > 0 {
			idx = int(f.AfterBytes / int64(cfg.ChunkBytes))
		}
		if idx > cfg.Chunks-1 {
			idx = cfg.Chunks - 1
		}
		if idx < 0 {
			idx = 0
		}
		switch f.Kind {
		case faults.Stall:
			d := f.Stall.Seconds()
			if d <= 0 {
				d = 10 * period
			}
			sf.stallAt[victim] = idx
			sf.stallFor[victim] += d
		case faults.Reset:
			sf.resetAt[victim] = idx
		case faults.Corrupt:
			if sf.corrupt[victim] == nil {
				sf.corrupt[victim] = map[int]bool{}
			}
			sf.corrupt[victim][idx] = true
		}
	}
	return sf
}

// ThousandStreamSim runs the thousand-stream drill on virtual time: a
// seeded arrival schedule over the real admission control, shard hash,
// per-stream credit dependency, and exactly-once ledger, with each
// receive shard modeled as a FIFO service station. No wall clock is
// read anywhere, so the run — including its JSON rendering — is a pure
// function of the config.
func ThousandStreamSim(cfg ThousandStreamConfig) (ThousandStreamResult, error) {
	cfg = cfg.withDefaults("sim")
	if cfg.Shards < 1 {
		return ThousandStreamResult{}, fmt.Errorf("experiments: sim shard count must be explicit and positive, got %d", cfg.Shards)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := metrics.NewRegistry()
	reg.SetStreamCap(cfg.StreamCap)
	ledger := pipeline.NewLedger(reg, 0)
	adm := pipeline.NewAdmission(reg, cfg.MaxStreams)

	period := 1 / cfg.QPS
	jitter := make([]float64, cfg.Streams)
	for s := range jitter {
		jitter[s] = rng.Float64() * period
	}
	sf := buildSimFaults(cfg, rng, period)

	// Each shard serves at 1.5x its slice of the offered load: busy
	// enough that sharding matters, enough headroom that a balanced
	// hash keeps every stream near fair share.
	offered := float64(cfg.Streams) * cfg.QPS * float64(cfg.ChunkBytes)
	servers := make([]*sim.Server, cfg.Shards)
	for i := range servers {
		servers[i] = sim.NewServer(fmt.Sprintf("shard%d", i), 1.5*offered/float64(cfg.Shards))
	}

	// MaxConcurrency staggers streams into waves: wave w starts after w
	// full stream-durations, modelling a loadgen that refuses to run
	// more than that many streams at once.
	waveLen := float64(cfg.Chunks) * period
	startOf := func(s int) float64 {
		if cfg.MaxConcurrency <= 0 || cfg.MaxConcurrency >= cfg.Streams {
			return jitter[s]
		}
		return float64(s/cfg.MaxConcurrency)*waveLen + jitter[s]
	}

	type ev struct {
		at     float64
		stream uint32
		seq    uint64
	}
	evs := make([]ev, 0, cfg.Streams*cfg.Chunks)
	for s := 0; s < cfg.Streams; s++ {
		id := uint32(s)
		base := startOf(s)
		shift := 0.0
		for i := 0; i < cfg.Chunks; i++ {
			if at, ok := sf.stallAt[id]; ok && i == at {
				shift += sf.stallFor[id]
			}
			t := base + float64(i)*period + shift
			evs = append(evs, ev{t, id, uint64(i)})
			if sf.corrupt[id][i] {
				// Quarantined on first arrival's CRC check, re-sent whole:
				// the retry lands a period later and dedups at the ledger
				// only if the original also landed — here the original is
				// the quarantined copy, so the retry is the delivery and a
				// second retry models the at-least-once overshoot.
				evs = append(evs, ev{t + period, id, uint64(i)})
			}
		}
		if at, ok := sf.resetAt[id]; ok {
			// Retransmit the credit window behind the reset point.
			from := at - cfg.Credit
			if from < 0 {
				from = 0
			}
			for j := from; j <= at && j < cfg.Chunks; j++ {
				evs = append(evs, ev{base + float64(at)*period + shift + period, id, uint64(j)})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		if evs[i].stream != evs[j].stream {
			return evs[i].stream < evs[j].stream
		}
		return evs[i].seq < evs[j].seq
	})

	type sstat struct {
		delivered int64
		dups      int64
		bytes     int64
		first     float64
		last      float64
		latSum    float64
		ring      []float64
		ri        int
	}
	stats := make([]sstat, cfg.Streams)
	for i := range stats {
		stats[i] = sstat{first: math.Inf(1), ring: make([]float64, cfg.Credit)}
	}
	horizon := 0.0
	for _, e := range evs {
		if !adm.Admit(e.stream) {
			continue
		}
		st := &stats[e.stream]
		// Credit dependency: this chunk cannot enter service before the
		// chunk `credit` positions back completed.
		start := e.at
		if dep := st.ring[st.ri]; dep > start {
			start = dep
		}
		done := servers[pipeline.ShardHash(e.stream, cfg.Shards)].Acquire(start, float64(cfg.ChunkBytes))
		st.ring[st.ri] = done
		st.ri = (st.ri + 1) % cfg.Credit
		if ledger.Admit(e.stream, e.seq) {
			st.delivered++
			st.bytes += int64(cfg.ChunkBytes)
			if start < st.first {
				st.first = start
			}
			if done > st.last {
				st.last = done
			}
			st.latSum += done - e.at
		} else {
			st.dups++
		}
		if done > horizon {
			horizon = done
		}
	}

	res := ThousandStreamResult{
		Mode:       "sim",
		Seed:       cfg.Seed,
		Streams:    cfg.Streams,
		Chunks:     cfg.Chunks,
		ChunkBytes: cfg.ChunkBytes,
		Shards:     cfg.Shards,
		Credit:     cfg.Credit,
		FaultPlan:  faults.FormatFaultPlan(cfg.Plan),
		Admitted:   int64(adm.Admitted()),
		Rejected:   int64(adm.Rejected()),
		Delivered:  ledger.Delivered(),
		Dups:       ledger.Dups(),
		Holes:      ledger.TotalHoles(),
		Abandoned:  ledger.Abandoned(),
		HorizonSec: horizon,
	}
	res.fillPerStream(cfg, func(id uint32) (ThousandStreamStat, bool) {
		st := &stats[id]
		if st.delivered == 0 {
			return ThousandStreamStat{}, false
		}
		row := ThousandStreamStat{
			Stream: id,
			Chunks: st.delivered,
			Bytes:  st.bytes,
			Dups:   st.dups,
		}
		if span := st.last - st.first; span > 0 {
			row.Gbps = float64(st.bytes) * 8 / 1e9 / span
		}
		row.MeanLatMs = st.latSum / float64(st.delivered) * 1e3
		return row, true
	})
	return res, nil
}

// fillPerStream assembles the per-stream rows in id order and derives
// the aggregate/fairness figures from them.
func (r *ThousandStreamResult) fillPerStream(cfg ThousandStreamConfig, row func(uint32) (ThousandStreamStat, bool)) {
	var totalBytes int64
	r.MinGbps = math.Inf(1)
	for s := 0; s < cfg.Streams; s++ {
		st, ok := row(uint32(s))
		if !ok {
			continue
		}
		r.PerStream = append(r.PerStream, st)
		totalBytes += st.Bytes
		if st.Gbps < r.MinGbps {
			r.MinGbps = st.Gbps
		}
		if st.Gbps > r.MaxGbps {
			r.MaxGbps = st.Gbps
		}
	}
	if len(r.PerStream) == 0 {
		r.MinGbps = 0
		return
	}
	if r.HorizonSec > 0 {
		r.AggGbps = float64(totalBytes) * 8 / 1e9 / r.HorizonSec
	}
	var sum float64
	for _, st := range r.PerStream {
		sum += st.Gbps
	}
	r.FairGbps = sum / float64(len(r.PerStream))
	if r.FairGbps > 0 {
		r.MinShare = r.MinGbps / r.FairGbps
	}
}

// ThousandStreamLoopback is the real-socket twin: Streams concurrent
// senders over loopback into one sharded exactly-once gateway, the
// fault plan injected into seeded-random victims' connections. Wall
// time makes the numbers (not the accounting) nondeterministic, so
// unlike the sim this result is not byte-stable.
func ThousandStreamLoopback(cfg ThousandStreamConfig) (ThousandStreamResult, error) {
	cfg = cfg.withDefaults("loopback")
	if cfg.MaxStreams != 0 {
		return ThousandStreamResult{}, fmt.Errorf("experiments: loopback drill runs with admission unlimited (MaxStreams 0); sim covers rejection")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	reg.SetStreamCap(cfg.StreamCap)
	ledger := pipeline.NewLedger(reg, 0)
	topo, _ := hostnuma.Discover()

	// Per-victim fault plans, chosen exactly like the sim's victims.
	plans := map[uint32]faults.Plan{}
	for _, f := range cfg.Plan.Faults {
		victim := uint32(rng.Intn(cfg.Streams))
		p := plans[victim]
		p.Seed = cfg.Plan.Seed
		p.Faults = append(p.Faults, f)
		plans[victim] = p
	}

	type streamTimes struct {
		mu    sync.Mutex
		first time.Time
		last  time.Time
		bytes int64
	}
	times := make([]streamTimes, cfg.Streams)
	expect := cfg.Streams * cfg.Chunks

	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- pipeline.RunReceiver(pipeline.ReceiverOptions{
			Cfg:  receiver("thousand-gw", group(runtime.Receive, 4, runtime.OS()), group(runtime.Decompress, 2, runtime.OS())),
			Topo: topo, Bind: "127.0.0.1:0",
			Expect: expect, Ready: ready, Metrics: reg,
			Shards:       cfg.Shards,
			StreamCredit: cfg.Credit,
			ExactlyOnce:  true, Ledger: ledger,
			Controls: cfg.Controls,
			Sink: func(c pipeline.Chunk) error {
				if int(c.Stream) >= len(times) {
					return fmt.Errorf("stream %d out of drill range", c.Stream)
				}
				st := &times[c.Stream]
				now := time.Now()
				st.mu.Lock()
				if st.first.IsZero() {
					st.first = now
				}
				st.last = now
				st.bytes += int64(len(c.Data))
				st.mu.Unlock()
				return nil
			},
		})
	}()
	addr := <-ready
	start := time.Now()

	// MaxConcurrency gates how many senders run at once.
	var sem chan struct{}
	if cfg.MaxConcurrency > 0 && cfg.MaxConcurrency < cfg.Streams {
		sem = make(chan struct{}, cfg.MaxConcurrency)
	}
	errs := make(chan error, cfg.Streams)
	for s := 0; s < cfg.Streams; s++ {
		go func(id uint32) {
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			opts := pipeline.SenderOptions{
				Cfg:  sender(fmt.Sprintf("thousand-src%d", id), group(runtime.Compress, 1, runtime.OS()), group(runtime.Send, 1, runtime.OS())),
				Topo: topo, Peers: []string{addr}, StreamID: id,
				QueueCap:    4,
				SendHorizon: 20 * time.Second,
			}
			if p, ok := plans[id]; ok {
				opts.Dial = faults.NewInjector(p).Dialer(nil)
			}
			opts.Source = repeatSource(cfg.Chunks, mixedPayload(cfg.ChunkBytes), 0)
			errs <- pipeline.RunSender(opts)
		}(uint32(s))
	}
	var firstErr error
	for s := 0; s < cfg.Streams; s++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := <-recvDone; err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return ThousandStreamResult{}, firstErr
	}

	res := ThousandStreamResult{
		Mode:       "loopback",
		Seed:       cfg.Seed,
		Streams:    cfg.Streams,
		Chunks:     cfg.Chunks,
		ChunkBytes: cfg.ChunkBytes,
		Shards:     cfg.Shards,
		Credit:     cfg.Credit,
		FaultPlan:  faults.FormatFaultPlan(cfg.Plan),
		Admitted:   int64(len(ledger.Streams())),
		Delivered:  ledger.Delivered(),
		Dups:       ledger.Dups(),
		Holes:      ledger.TotalHoles(),
		Abandoned:  ledger.Abandoned(),
		HorizonSec: time.Since(start).Seconds(),
	}
	res.fillPerStream(cfg, func(id uint32) (ThousandStreamStat, bool) {
		st := &times[id]
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.bytes == 0 {
			return ThousandStreamStat{}, false
		}
		row := ThousandStreamStat{
			Stream: id,
			Chunks: ledger.DeliveredStream(id),
			Bytes:  st.bytes,
			Dups:   reg.CounterValue(fmt.Sprintf("dup_drops_stream_%d", id)),
		}
		// Throughput over the stream's completion span from run start,
		// not first→last delivery: a finite drill's streams burst their
		// chunks in milliseconds, so intra-stream spans are scheduler
		// noise, while a starved stream shows up exactly where it hurts —
		// a late last delivery.
		if span := st.last.Sub(start).Seconds(); span > 0 {
			row.Gbps = float64(st.bytes) * 8 / 1e9 / span
		}
		return row, true
	})
	return res, nil
}

// FormatThousandStream renders the drill for humans: the aggregate
// verdict plus the scoreboard's edges (slowest and fastest rows) —
// at a thousand streams the full table is the JSON report's job.
func FormatThousandStream(r ThousandStreamResult) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "thousand-stream %s: %d streams x %d chunks x %d B (seed %d, %d shards, credit %d)\n",
		r.Mode, r.Streams, r.Chunks, r.ChunkBytes, r.Seed, r.Shards, r.Credit)
	if r.FaultPlan != "" {
		fmt.Fprintf(&b, "  fault plan: %s\n", r.FaultPlan)
	}
	fmt.Fprintf(&b, "  admitted %d  rejected %d  delivered %d  dups %d  holes %d  abandoned %d\n",
		r.Admitted, r.Rejected, r.Delivered, r.Dups, r.Holes, r.Abandoned)
	fmt.Fprintf(&b, "  horizon %.3fs  aggregate %.3f Gbps  fair/stream %.4f Gbps\n",
		r.HorizonSec, r.AggGbps, r.FairGbps)
	fmt.Fprintf(&b, "  spread: min %.4f Gbps (%.0f%% of fair)  max %.4f Gbps\n",
		r.MinGbps, r.MinShare*100, r.MaxGbps)

	rows := append([]ThousandStreamStat(nil), r.PerStream...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Gbps < rows[j].Gbps })
	const edge = 5
	show := rows
	if len(rows) > 2*edge {
		show = append(append([]ThousandStreamStat(nil), rows[:edge]...), rows[len(rows)-edge:]...)
	}
	for i, st := range show {
		if len(rows) > 2*edge && i == edge {
			fmt.Fprintf(&b, "    ... %d streams elided ...\n", len(rows)-2*edge)
		}
		fmt.Fprintf(&b, "    stream %-5d %8.4f Gbps  %5d chunks", st.Stream, st.Gbps, st.Chunks)
		if st.Dups > 0 {
			fmt.Fprintf(&b, "  dups %d", st.Dups)
		}
		if st.MeanLatMs > 0 {
			fmt.Fprintf(&b, "  mean-lat %.2f ms", st.MeanLatMs)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
