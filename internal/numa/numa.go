// Package numa provides host NUMA topology discovery and OS-thread
// placement. It is the stand-in for the paper's use of libnuma
// (numa_bind(): "restrict task and its children to run and allocate
// memory exclusively from the specified NUMA sockets").
//
// On Linux the topology is read from sysfs and placement uses
// sched_setaffinity on the calling goroutine's locked OS thread — when
// the CPU set restricts the thread at all (PinEffect): a set covering
// every CPU the process may run on places nothing, and a goroutine that
// owns a thread pays for it on every wake-up (see Pin). Other
// platforms (and hosts without NUMA sysfs) fall back to a synthetic
// topology, which is all the simulator-driven experiments need. Real
// memory binding (mbind) is approximated by first-touch: binding a thread
// before it allocates places pages on the thread's node, which is exactly
// the Linux first-touch policy the paper leans on in §3.4.
package numa

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ErrUnsupported reports that real thread placement is unavailable on
// this platform; callers fall back to simulated placement.
var ErrUnsupported = errors.New("numa: thread placement unsupported on this platform")

// Node describes one NUMA domain of the host.
type Node struct {
	ID       int
	CPUs     []int // logical CPU ids belonging to the node
	MemBytes int64 // local memory size, 0 if unknown
}

// HostTopology is the set of NUMA nodes visible to the process.
type HostTopology struct {
	Nodes []Node
	// Distances is the SLIT matrix (Distances[i][j] = relative access
	// cost from node i to node j; 10 = local). Nil when unknown.
	Distances [][]int
}

// NumCPUs returns the total logical CPU count across nodes.
func (t HostTopology) NumCPUs() int {
	n := 0
	for _, node := range t.Nodes {
		n += len(node.CPUs)
	}
	return n
}

// Node returns the node with the given id.
func (t HostTopology) Node(id int) (Node, bool) {
	for _, n := range t.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// NodeOfCPU returns the node id owning the given logical CPU, or -1.
func (t HostTopology) NodeOfCPU(cpu int) int {
	for _, n := range t.Nodes {
		for _, c := range n.CPUs {
			if c == cpu {
				return n.ID
			}
		}
	}
	return -1
}

// Discover returns the host topology. On Linux it parses
// /sys/devices/system/node; if that is absent (or on other platforms) it
// returns a single synthetic node covering all CPUs, and ok=false.
func Discover() (HostTopology, bool) {
	if t, err := discoverSysfs("/sys/devices/system/node"); err == nil && len(t.Nodes) > 0 {
		return t, true
	}
	return Synthetic(1, runtime.NumCPU()), false
}

// Synthetic builds a topology of `nodes` NUMA domains with
// `cpusPerNode` CPUs each, numbered the way two-socket Xeons are
// (node 0: cpus 0..k-1, node 1: cpus k..2k-1).
func Synthetic(nodes, cpusPerNode int) HostTopology {
	t := HostTopology{}
	cpu := 0
	for n := 0; n < nodes; n++ {
		node := Node{ID: n}
		for c := 0; c < cpusPerNode; c++ {
			node.CPUs = append(node.CPUs, cpu)
			cpu++
		}
		t.Nodes = append(t.Nodes, node)
	}
	// Conventional SLIT: 10 local, 21 one hop.
	for i := 0; i < nodes; i++ {
		row := make([]int, nodes)
		for j := range row {
			if i == j {
				row[j] = 10
			} else {
				row[j] = 21
			}
		}
		t.Distances = append(t.Distances, row)
	}
	return t
}

// discoverSysfs parses Linux's /sys/devices/system/node layout.
func discoverSysfs(root string) (HostTopology, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return HostTopology{}, err
	}
	var t HostTopology
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "node") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimPrefix(name, "node"))
		if err != nil {
			continue
		}
		listBytes, err := os.ReadFile(root + "/" + name + "/cpulist")
		if err != nil {
			continue
		}
		cpus, err := ParseCPUList(strings.TrimSpace(string(listBytes)))
		if err != nil {
			return HostTopology{}, fmt.Errorf("numa: node%d cpulist: %w", id, err)
		}
		node := Node{ID: id, CPUs: cpus}
		if mem, err := os.ReadFile(root + "/" + name + "/meminfo"); err == nil {
			node.MemBytes = parseMemTotal(string(mem))
		}
		t.Nodes = append(t.Nodes, node)
	}
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i].ID < t.Nodes[j].ID })
	// SLIT distances, when exposed.
	for _, n := range t.Nodes {
		data, err := os.ReadFile(fmt.Sprintf("%s/node%d/distance", root, n.ID))
		if err != nil {
			t.Distances = nil
			break
		}
		row, err := parseDistanceRow(strings.TrimSpace(string(data)))
		if err != nil {
			t.Distances = nil
			break
		}
		t.Distances = append(t.Distances, row)
	}
	return t, nil
}

// parseDistanceRow parses a sysfs distance line ("10 21").
func parseDistanceRow(s string) ([]int, error) {
	fields := strings.Fields(s)
	row := make([]int, 0, len(fields))
	for _, f := range fields {
		d, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("numa: bad distance %q", f)
		}
		row = append(row, d)
	}
	return row, nil
}

// ParseCPUList parses Linux cpulist syntax ("0-3,8,10-11") into CPU ids.
func ParseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("bad range %q", part)
			}
			b, err := strconv.Atoi(hi)
			if err != nil {
				return nil, fmt.Errorf("bad range %q", part)
			}
			if b < a {
				return nil, fmt.Errorf("inverted range %q", part)
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		} else {
			c, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("bad cpu %q", part)
			}
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// parseMemTotal extracts the MemTotal line ("Node 0 MemTotal: 123 kB").
func parseMemTotal(meminfo string) int64 {
	for _, line := range strings.Split(meminfo, "\n") {
		if !strings.Contains(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "MemTotal:" && i+1 < len(fields) {
				kb, err := strconv.ParseInt(fields[i+1], 10, 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// Pin restricts the current OS thread (which the caller must have locked
// with runtime.LockOSThread) to the given CPUs for the remainder of its
// life. Long-lived pipeline workers use Pin once at start-up, and only
// when PinEffect says the set Constrains: a goroutine that owns a locked
// thread is woken through Go's locked-thread hand-off (another thread is
// woken first, finds the goroutine locked, passes its P to the owner and
// parks again — two futex round trips per wake-up), which is worth paying
// for a placement and for nothing else. A thread pinned this way must
// not be unlocked again: it would rejoin the scheduler's pool and run
// arbitrary goroutines on the narrowed mask. Let the goroutine exit
// locked and the runtime retires the thread with it.
func Pin(cpus []int) error {
	return setAffinity(cpus)
}

// Effect is what pinning a thread to a CPU set would do in this process.
type Effect int

const (
	// Unconstrained: the set covers every CPU the process may run on,
	// so the pin would restrict nothing (a whole-host set, or a
	// one-socket host's only domain), or it is empty and no placement
	// was asked for. Nothing to apply and nothing lost.
	Unconstrained Effect = iota
	// Constrains: the set holds some but not all of the allowed CPUs.
	Constrains
	// Inapplicable: the set shares no CPU with the allowed ones (a
	// topology describing another host), or the platform has no thread
	// affinity. The placement is lost.
	Inapplicable
)

// Allowed returns the CPUs the calling thread may run on, ascending.
// Every thread the Go scheduler owns inherits the process's mask, so
// from an ordinary goroutine this is the process's allowed set.
func Allowed() ([]int, error) {
	m, err := getAffinity()
	if err != nil {
		return nil, err
	}
	return m.cpus(), nil
}

// cpus lists the mask's set bits, ascending.
func (m cpuMask) cpus() []int {
	var cpus []int
	for w, bits := range m {
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) != 0 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	return cpus
}

// PinEffect compares cpus with Allowed(). It reads the mask on every
// call: callers decide once per worker spawn, and a cpuset may have
// changed since the last one.
func PinEffect(cpus []int) Effect {
	if len(cpus) == 0 {
		return Unconstrained
	}
	allowed, err := Allowed()
	if err != nil {
		return Inapplicable
	}
	want := make(map[int]bool, len(cpus))
	for _, c := range cpus {
		want[c] = true
	}
	shared := 0
	for _, c := range allowed {
		if want[c] {
			shared++
		}
	}
	switch shared {
	case 0:
		return Inapplicable
	case len(allowed):
		return Unconstrained
	default:
		return Constrains
	}
}

// FormatCPUList renders CPU ids in Linux cpulist syntax ("0-3,8"), the
// inverse of ParseCPUList. cpus must be ascending.
func FormatCPUList(cpus []int) string {
	var b strings.Builder
	for i := 0; i < len(cpus); {
		j := i
		for j+1 < len(cpus) && cpus[j+1] == cpus[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(cpus[i]))
		if j > i {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(cpus[j]))
		}
		i = j + 1
	}
	return b.String()
}
