package experiments

import (
	"fmt"
	"strings"
)

// Text renderers producing the paper-shaped tables the cmd/experiments
// tool prints. Each takes the structured results of its harness.

// FormatFig5 renders Figure 5 as a process-count × placement table.
func FormatFig5(results []Fig5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: receiver throughput (Gbps) vs #streaming processes\n")
	fmt.Fprintf(&b, "%8s", "#p")
	for _, p := range Fig5Placements {
		fmt.Fprintf(&b, "%10s", p)
	}
	b.WriteByte('\n')
	counts := orderedProcessCounts(results)
	for _, p := range counts {
		fmt.Fprintf(&b, "%8d", p)
		for _, placement := range Fig5Placements {
			v := "-"
			for _, r := range results {
				if r.Processes == p && r.Placement == placement {
					v = fmt.Sprintf("%.1f", r.Gbps)
				}
			}
			fmt.Fprintf(&b, "%10s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func orderedProcessCounts(results []Fig5Result) []int {
	var counts []int
	seen := map[int]bool{}
	for _, r := range results {
		if !seen[r.Processes] {
			seen[r.Processes] = true
			counts = append(counts, r.Processes)
		}
	}
	return counts
}

// FormatCoreHeat renders per-core data (Figures 6 and 7) as a grid:
// one row per core, one column per configuration, each cell a 0–9
// intensity digit ('.' for zero).
func FormatCoreHeat(title string, labels []string, perConfig [][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	// Normalize to the global maximum.
	max := 0.0
	for _, col := range perConfig {
		for _, v := range col {
			if v > max {
				max = v
			}
		}
	}
	fmt.Fprintf(&b, "%6s", "core")
	for _, l := range labels {
		fmt.Fprintf(&b, " %12s", l)
	}
	b.WriteByte('\n')
	if len(perConfig) == 0 {
		return b.String()
	}
	cores := len(perConfig[0])
	for c := 0; c < cores; c++ {
		fmt.Fprintf(&b, "%6d", c)
		for _, col := range perConfig {
			fmt.Fprintf(&b, " %12s", heatCell(col[c], max))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func heatCell(v, max float64) string {
	if max <= 0 || v <= 0 {
		return "."
	}
	d := int(v / max * 9.999)
	if d > 9 {
		d = 9
	}
	return fmt.Sprintf("%d", d)
}

// Fig6Heat renders Figure 6 (core utilization) from Fig6CoreUsage output.
func Fig6Heat(results []Fig6Result) string {
	labels := make([]string, len(results))
	cols := make([][]float64, len(results))
	for i, r := range results {
		labels[i] = r.Config.Label
		col := make([]float64, len(r.CoreStats))
		for j, cs := range r.CoreStats {
			col[j] = cs.Utilization
		}
		cols[i] = col
	}
	return FormatCoreHeat("Figure 6: core usage (0-9 = busy fraction)", labels, cols)
}

// Fig7Heat renders Figure 7 (normalized remote-access bandwidth) from
// Fig6CoreUsage output.
func Fig7Heat(results []Fig6Result) string {
	labels := make([]string, len(results))
	cols := make([][]float64, len(results))
	for i, r := range results {
		labels[i] = r.Config.Label
		col := make([]float64, len(r.CoreStats))
		for j, cs := range r.CoreStats {
			if r.Horizon > 0 {
				col[j] = cs.RemoteBytes / r.Horizon
			}
		}
		cols[i] = col
	}
	return FormatCoreHeat("Figure 7: normalized remote memory access bandwidth (0-9)", labels, cols)
}

// FormatCodec renders Fig 8a or 9a as a threads × configuration table.
func FormatCodec(title string, results []CodecResult, threadCounts []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%8s", "threads")
	for _, cfg := range Table1Configs() {
		fmt.Fprintf(&b, "%9s", cfg.Label)
	}
	b.WriteByte('\n')
	for _, n := range threadCounts {
		fmt.Fprintf(&b, "%8d", n)
		for _, cfg := range Table1Configs() {
			if r, ok := CodecResultFor(results, cfg.Label, n); ok {
				fmt.Fprintf(&b, "%9.1f", r.Gbps)
			} else {
				fmt.Fprintf(&b, "%9s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CodecHeat renders Fig 8b/9b: core usage across Table 1 configurations
// at the given thread counts.
func CodecHeat(title string, results []CodecResult, threadCounts []int) string {
	var labels []string
	var cols [][]float64
	for _, n := range threadCounts {
		for _, cfg := range Table1Configs() {
			r, ok := CodecResultFor(results, cfg.Label, n)
			if !ok {
				continue
			}
			labels = append(labels, fmt.Sprintf("%s_%dt", cfg.Label, n))
			col := make([]float64, len(r.CoreStats))
			for j, cs := range r.CoreStats {
				col[j] = cs.Utilization
			}
			cols = append(cols, col)
		}
	}
	return FormatCoreHeat(title, labels, cols)
}

// FormatFig11 renders Figure 11 as a threads × configuration table.
func FormatFig11(results []Fig11Result) string {
	var b strings.Builder
	b.WriteString("Figure 11: network throughput (Gbps) vs #send/recv thread pairs\n")
	fmt.Fprintf(&b, "%8s", "threads")
	for _, cfg := range Table2Configs() {
		fmt.Fprintf(&b, "%9s", cfg.Label)
	}
	b.WriteByte('\n')
	seen := map[int]bool{}
	var counts []int
	for _, r := range results {
		if !seen[r.Threads] {
			seen[r.Threads] = true
			counts = append(counts, r.Threads)
		}
	}
	for _, n := range counts {
		fmt.Fprintf(&b, "%8d", n)
		for _, cfg := range Table2Configs() {
			v := "-"
			for _, r := range results {
				if r.Config == cfg.Label && r.Threads == n {
					v = fmt.Sprintf("%.1f", r.Gbps)
				}
			}
			fmt.Fprintf(&b, "%9s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig12 renders Figure 12: per configuration and thread count, the
// end-to-end throughput with receiver threads on NUMA 0 vs NUMA 1.
func FormatFig12(results []Fig12Result) string {
	var b strings.Builder
	b.WriteString("Figure 12: end-to-end throughput (Gbps), receiver threads on N0 vs N1\n")
	fmt.Fprintf(&b, "%8s %8s %10s %10s %12s\n", "config", "threads", "recv@N0", "recv@N1", "bottleneck")
	for _, cfg := range Table3Configs() {
		for _, n := range Fig12ThreadCounts {
			var n0, n1 string = "-", "-"
			bottleneck := "-"
			for _, r := range results {
				if r.Config == cfg.Label && r.Threads == n {
					if r.RecvDomain == 0 {
						n0 = fmt.Sprintf("%.1f", r.E2EGbps)
					} else {
						n1 = fmt.Sprintf("%.1f", r.E2EGbps)
						bottleneck = r.Bottleneck
					}
				}
			}
			fmt.Fprintf(&b, "%8s %8d %10s %10s %12s\n", cfg.Label, n, n0, n1, bottleneck)
		}
	}
	return b.String()
}

// FormatFig14 renders Figure 14: per-stream and cumulative network and
// end-to-end throughput for the runtime and OS placements.
func FormatFig14(rt, os Fig14Result, factor float64) string {
	var b strings.Builder
	b.WriteString("Figure 14: four concurrent streams into the gateway (Gbps)\n")
	fmt.Fprintf(&b, "%10s %18s %18s\n", "", "runtime (net/e2e)", "OS (net/e2e)")
	for i := range rt.Streams {
		r := rt.Streams[i]
		var o Fig14StreamResult
		if i < len(os.Streams) {
			o = os.Streams[i]
		}
		fmt.Fprintf(&b, "%10s %8.2f /%8.2f %8.2f /%8.2f\n",
			r.Stream, r.NetGbps, r.E2EGbps, o.NetGbps, o.E2EGbps)
	}
	fmt.Fprintf(&b, "%10s %8.2f /%8.2f %8.2f /%8.2f\n",
		"total", rt.TotalNet, rt.TotalE2E, os.TotalNet, os.TotalE2E)
	fmt.Fprintf(&b, "runtime vs OS end-to-end: %.2fX (paper: 1.48X)\n", factor)
	return b.String()
}
