// Command benchmark is the repository's benchmark: four streaming
// workloads over real loopback TCP through numastream.StartSender and
// StartReceiver, every delivered chunk checked, the end-to-end metrics
// of BENCHMARK.json measured with tracing off and the per-layer ones in
// a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// result is the last line a single-workload run prints: the contract
// between this program and whatever drives it.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	p := params{setups: defaultSetups, setupBudget: defaultSetupBudget, ringBufs: defaultRingBufs, replayN: defaultReplayN}
	var trace, repeat int
	flag.StringVar(&p.workload, "workload", "", "run this one workload in this process (default: every workload, each in a fresh process)")
	flag.Int64Var(&p.seed, "seed", 1, "seed the inputs and the chunk order are made from")
	flag.Float64Var(&p.seconds, "seconds", float64(spec.RunSeconds), fmt.Sprintf("timed measurement per run, split into %d windows", numWindows))
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run with the per-layer metrics")
	flag.IntVar(&repeat, "repeat", 1, "complete sets to run and compare against the bounds (every-workload mode)")
	flag.StringVar(&p.outDir, "out", filepath.Join("benchmark", "out"), "directory for result.json and the trace files")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || repeat < 1 {
		return fmt.Errorf("usage: [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat n] [-out dir]")
	}
	p.traced = trace == 1

	if p.workload == "" {
		return runAll(p, spec, repeat)
	}
	rep, err := runWorkload(p, spec)
	if err != nil {
		return err
	}
	printReport(rep, spec)
	line, err := json.Marshal(rep.result(spec))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct {
		return errors.New(strings.Join(rep.problems, "; "))
	}
	return nil
}

func (r *report) result(spec benchSpec) result {
	res := result{Correct: r.correct, Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]value{}}
	units := map[string]string{}
	for _, m := range spec.metrics(r.traced) {
		units[m.Name] = m.Unit
	}
	for _, v := range r.values {
		res.Metrics[v.name] = value{Value: v.value, Unit: units[v.name]}
	}
	return res
}

// printReport prints one workload's metrics by name with unit,
// direction and, for end-to-end metrics, the regression bound.
func printReport(r *report, spec benchSpec) {
	mode := "tracing off"
	if r.traced {
		mode = "traced run"
	}
	fmt.Printf("workload %s (%s): %d chunks sent, %d failed\n", r.workload, mode, r.tally.attempted, r.tally.failed)
	specs := map[string]metricSpec{}
	for _, m := range spec.metrics(r.traced) {
		specs[m.Name] = m
	}
	for _, v := range r.values {
		m := specs[v.name]
		line := fmt.Sprintf("  %-36s %14.6g %-7s %s is better", v.name, v.value, m.Unit, m.Better)
		if !r.traced {
			line += fmt.Sprintf(", bound %.0f%%", m.Bound*100)
		}
		if !math.IsNaN(v.lo) {
			line += fmt.Sprintf("  [min %.6g, max %.6g]", v.lo, v.hi)
		}
		if v.note != "" {
			line += "  " + v.note
		}
		fmt.Println(line)
	}
	if r.verdict != "" {
		fmt.Println("  " + r.verdict)
	}
	for _, w := range r.warnings {
		fmt.Println("  WARNING:", w)
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED:", p)
	}
}

// hostInfo is recorded with every result file so numbers are never read
// without the machine they came from.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Link       string `json:"link"`
	Host       string `json:"synthetic_host"`
}

func host() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Link: "loopback TCP, not a real link",
		Host: fmt.Sprintf("configs generated for %d socket x %d cores", genTopo.Sockets, genTopo.CoresPerSocket)}
}

// runAll runs every workload, each in a fresh process of this binary
// (clean RSS, CPU clock and buffer pools), repeat times over, prints the
// summary, writes result.json, and with repeat > 1 checks that the sets
// agree within the bounds.
func runAll(p params, spec benchSpec, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := make([]map[string]result, repeat)
	failed := false
	for i := range sets {
		sets[i] = map[string]result{}
		if repeat > 1 {
			fmt.Printf("--- set %d of %d\n", i+1, repeat)
		}
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds),
				"-trace", fmt.Sprint(btoi(p.traced)), "-out", p.outDir}
			res, err := runChild(self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				failed = true
			}
			sets[i][w.name] = res
		}
	}
	printSummary(sets[len(sets)-1], spec, p.traced)
	if p.traced {
		// The cross-workload half of the designed-bottleneck check.
		small := sets[len(sets)-1]["small_chunk_fanin"].Metrics["pipeline.self_cpu_share"].Value
		tomo := sets[len(sets)-1]["tomo_stream"].Metrics["pipeline.self_cpu_share"].Value
		if small < tomo {
			fmt.Printf("WARNING: small_chunk_fanin's pipeline.self_cpu_share %.3f is below tomo_stream's %.3f: per-chunk cost no longer dominates it\n", small, tomo)
		}
	}
	if repeat > 1 && !compareSets(sets, spec, p.traced) {
		failed = true
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{
		"host": host(), "seed": p.seed, "seconds": p.seconds, "traced": p.traced, "sets": sets,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(p.outDir, "result.json"), append(doc, '\n'), 0o644); err != nil {
		return err
	}
	if failed {
		return errors.New("at least one workload failed or disagreed with itself; see above")
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, passes its text
// through, and parses the result from its last line.
func runChild(self string, args []string) (result, error) {
	var res result
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	text := strings.TrimRight(string(out), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Print(string(out))
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	fmt.Println(strings.TrimSuffix(text, last))
	return res, runErr
}

// printSummary prints every metric of every workload side by side.
func printSummary(set map[string]result, spec benchSpec, traced bool) {
	h := host()
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, %s, %s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Link, h.Host)
	fmt.Printf("%-36s %-7s %-7s %-6s", "metric", "unit", "better", "bound")
	for _, w := range workloads {
		fmt.Printf(" %17s", w.name)
	}
	fmt.Println()
	for _, m := range spec.metrics(traced) {
		bound := "-"
		if !traced {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		fmt.Printf("%-36s %-7s %-7s %-6s", m.Name, m.Unit, m.Better, bound)
		for _, w := range workloads {
			fmt.Printf(" %17.6g", set[w.name].Metrics[m.Name].Value)
		}
		fmt.Println()
	}
}

// compareSets is the repeatability self-test: consecutive sets of the
// same code must agree on every end-to-end metric of every workload
// within that metric's bound.
func compareSets(sets []map[string]result, spec benchSpec, traced bool) bool {
	if traced {
		fmt.Println("per-layer metrics carry no bounds; -repeat compares end-to-end metrics only")
		return true
	}
	ok := true
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i := 1; i < len(sets); i++ {
		for _, w := range workloads {
			for _, m := range spec.EndToEnd {
				a, b := sets[i-1][w.name].Metrics[m.Name].Value, sets[i][w.name].Metrics[m.Name].Value
				worse := (b - a) / a
				if m.Better == "higher" {
					worse = (a - b) / a
				}
				// Either set may be the baseline, so both directions count.
				verdict := ""
				if math.Abs(worse) > m.Bound || math.IsNaN(worse) {
					verdict, ok = "  EXCEEDS BOUND", false
				}
				fmt.Printf("%-18s %-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, m.Name, a, b, worse*100, m.Bound*100, verdict)
			}
		}
	}
	return ok
}
