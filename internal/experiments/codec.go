package experiments

import (
	"math"

	"numastream/internal/hw"
	"numastream/internal/runtime"
	"numastream/internal/sim"
)

// Fig 8 (compression) and Fig 9 (decompression) study the codec stages in
// isolation: worker threads pull sequential 11.0592 MB chunks of the
// 16 GB synthetic tomography dataset from a configured memory domain,
// run the codec, and write the result to their local domain. The studies
// sweep thread counts across the Table 1 memory/execution configurations
// on the two-socket machine model.

// ChunkBytes is the paper's streaming unit (one X-ray projection).
const ChunkBytes = 11.0592e6

// DatasetBytes is the paper's synthetic dataset size (§3.2).
const DatasetBytes = 16e9

// CodecResult is one measurement point of Fig 8a/9a (plus the per-core
// metrics backing Figs 8b/9b).
type CodecResult struct {
	Config    string
	Threads   int
	Gbps      float64 // uncompressed-side throughput
	CoreStats []hw.CoreStat
	Horizon   float64 // virtual seconds the run took
}

// codecOp distinguishes the two studies.
type codecOp int

const (
	opCompress codecOp = iota
	opDecompress
)

// runCodec executes one (configuration, thread count) cell: workers churn
// through the dataset and the aggregate uncompressed-side throughput is
// reported.
func runCodec(cfg MemExecConfig, threads int, op codecOp, seed int64) CodecResult {
	chunks := int(math.Round(DatasetBytes / ChunkBytes))
	node, finish := codecRun(nil, seed, op, threads, cfg.Exec, cfg.MemDomain, chunks)
	return CodecResult{
		Config:    cfg.Label,
		Threads:   threads,
		Gbps:      hw.Gbps(float64(chunks) * ChunkBytes / finish),
		CoreStats: node.M.CoreStats(finish),
		Horizon:   finish,
	}
}

// codecRun drives `chunks` codec operations through `threads` workers
// placed by exec on a lynxdtn built after mutate, each reading its chunk
// from memDomain and writing the result to its own domain. It returns
// the node and the virtual time the last operation finished.
func codecRun(mutate mutator, seed int64, op codecOp, threads int, exec runtime.Placement, memDomain, chunks int) (*runtime.SimNode, float64) {
	eng := sim.NewEngine()
	node := runtime.NewSimNode(newMachine(eng, hw.LynxdtnConfig(), mutate), seed)
	m := node.M

	task := runtime.Compress
	if op == opDecompress {
		task = runtime.Decompress
	}
	cores, unpinned := runtime.PlaceGroup(node, runtime.TaskGroup{Type: task, Count: threads, Placement: exec})

	remaining := chunks
	var finish float64
	for _, core := range cores {
		var loop func()
		loop = func() {
			if remaining == 0 {
				return
			}
			remaining--
			o := hw.Op{
				ReadSocket:    memDomain,
				WriteSocket:   core.Socket,
				Unpinned:      unpinned,
				Prefetchable:  true,
				WriteAllocate: true,
			}
			switch op {
			case opCompress:
				o.Compute = ChunkBytes / node.Rates.Compress
				o.ReadBytes, o.WriteBytes = ChunkBytes, ChunkBytes/hw.CompressionRatio
			case opDecompress:
				o.Compute = ChunkBytes / node.Rates.Decompress
				o.ReadBytes, o.WriteBytes = ChunkBytes/hw.CompressionRatio, ChunkBytes
			}
			done := m.Exec(eng.Now(), core, o)
			finish = math.Max(finish, done)
			eng.Schedule(done, loop)
		}
		eng.After(0, loop)
	}
	eng.Run()
	return node, finish
}

// Fig8ThreadCounts is the paper's Fig 8a sweep.
var Fig8ThreadCounts = []int{1, 2, 4, 8, 16, 32, 64}

// Fig9ThreadCounts is the paper's Fig 9a sweep (capped at 16, §3.3).
var Fig9ThreadCounts = []int{1, 2, 4, 8, 16}

// Fig8Compression reproduces Fig 8a (and the core-usage data of Fig 8b):
// compression throughput for every Table 1 configuration across thread
// counts.
func Fig8Compression(threadCounts []int) []CodecResult {
	if threadCounts == nil {
		threadCounts = Fig8ThreadCounts
	}
	return codecSweep(threadCounts, opCompress)
}

// Fig9Decompression reproduces Fig 9a (and Fig 9b's core usage).
func Fig9Decompression(threadCounts []int) []CodecResult {
	if threadCounts == nil {
		threadCounts = Fig9ThreadCounts
	}
	return codecSweep(threadCounts, opDecompress)
}

func codecSweep(threadCounts []int, op codecOp) []CodecResult {
	var out []CodecResult
	for _, cfg := range Table1Configs() {
		for _, n := range threadCounts {
			// Seed OS placement per cell so G/H get fresh random
			// layouts, deterministically.
			seed := int64(len(cfg.Label))*1000 + int64(cfg.Label[0])*100 + int64(n)
			out = append(out, runCodec(cfg, n, op, seed))
		}
	}
	return out
}

// CodecResultFor returns the result for a (config, threads) cell.
func CodecResultFor(results []CodecResult, config string, threads int) (CodecResult, bool) {
	for _, r := range results {
		if r.Config == config && r.Threads == threads {
			return r, true
		}
	}
	return CodecResult{}, false
}
