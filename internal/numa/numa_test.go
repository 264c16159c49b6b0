package numa

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParseCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"", nil, false},
		{"0", []int{0}, false},
		{"0-3", []int{0, 1, 2, 3}, false},
		{"0-1,4,6-7", []int{0, 1, 4, 6, 7}, false},
		{" 2 , 5 ", []int{2, 5}, false},
		{"3-1", nil, true},
		{"x", nil, true},
		{"1-y", nil, true},
	}
	for _, tc := range cases {
		got, err := ParseCPUList(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseCPUList(%q): expected error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCPUList(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseCPUList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSynthetic(t *testing.T) {
	top := Synthetic(2, 16)
	if len(top.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(top.Nodes))
	}
	if top.NumCPUs() != 32 {
		t.Fatalf("NumCPUs = %d, want 32", top.NumCPUs())
	}
	n1, ok := top.Node(1)
	if !ok || n1.CPUs[0] != 16 || n1.CPUs[15] != 31 {
		t.Fatalf("node 1 cpus = %v", n1.CPUs)
	}
	if top.NodeOfCPU(5) != 0 || top.NodeOfCPU(20) != 1 {
		t.Fatalf("NodeOfCPU mapping wrong: %d, %d", top.NodeOfCPU(5), top.NodeOfCPU(20))
	}
	if top.NodeOfCPU(99) != -1 {
		t.Fatal("NodeOfCPU(99) should be -1")
	}
	if _, ok := top.Node(7); ok {
		t.Fatal("Node(7) should not exist")
	}
}

func TestDiscoverAlwaysReturnsUsableTopology(t *testing.T) {
	top, _ := Discover()
	if len(top.Nodes) == 0 {
		t.Fatal("Discover returned no nodes")
	}
	if top.NumCPUs() == 0 {
		t.Fatal("Discover returned no CPUs")
	}
}

func TestDiscoverSysfsFixture(t *testing.T) {
	dir := t.TempDir()
	for node, cpulist := range map[string]string{"node0": "0-3", "node1": "4-7"} {
		nd := filepath.Join(dir, node)
		if err := os.MkdirAll(nd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(nd, "cpulist"), []byte(cpulist+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		meminfo := "Node 0 MemTotal:    536870912 kB\n"
		if err := os.WriteFile(filepath.Join(nd, "meminfo"), []byte(meminfo), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A non-node entry must be ignored.
	if err := os.MkdirAll(filepath.Join(dir, "power"), 0o755); err != nil {
		t.Fatal(err)
	}

	top, err := discoverSysfs(dir)
	if err != nil {
		t.Fatalf("discoverSysfs: %v", err)
	}
	if len(top.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(top.Nodes))
	}
	if !reflect.DeepEqual(top.Nodes[0].CPUs, []int{0, 1, 2, 3}) {
		t.Fatalf("node0 cpus = %v", top.Nodes[0].CPUs)
	}
	if !reflect.DeepEqual(top.Nodes[1].CPUs, []int{4, 5, 6, 7}) {
		t.Fatalf("node1 cpus = %v", top.Nodes[1].CPUs)
	}
	if top.Nodes[0].MemBytes != 536870912*1024 {
		t.Fatalf("node0 mem = %d", top.Nodes[0].MemBytes)
	}
}

func TestParseMemTotal(t *testing.T) {
	if got := parseMemTotal("Node 1 MemTotal: 1024 kB\nNode 1 MemFree: 1 kB\n"); got != 1024*1024 {
		t.Fatalf("parseMemTotal = %d", got)
	}
	if got := parseMemTotal("garbage"); got != 0 {
		t.Fatalf("parseMemTotal(garbage) = %d", got)
	}
}

func TestSyntheticDistances(t *testing.T) {
	top := Synthetic(3, 2)
	if top.Distances[0][0] != 10 || top.Distances[0][2] != 21 {
		t.Fatalf("distances: %v", top.Distances)
	}
}

func TestDiscoverSysfsDistances(t *testing.T) {
	dir := t.TempDir()
	for node, data := range map[string]struct{ cpulist, dist string }{
		"node0": {"0-1", "10 21"},
		"node1": {"2-3", "21 10"},
	} {
		nd := filepath.Join(dir, node)
		if err := os.MkdirAll(nd, 0o755); err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(nd, "cpulist"), []byte(data.cpulist+"\n"), 0o644)
		os.WriteFile(filepath.Join(nd, "distance"), []byte(data.dist+"\n"), 0o644)
	}
	top, err := discoverSysfs(dir)
	if err != nil {
		t.Fatalf("discoverSysfs: %v", err)
	}
	if top.Distances[0][1] != 21 || top.Distances[1][1] != 10 {
		t.Fatalf("distances = %v", top.Distances)
	}
}

func TestParseDistanceRow(t *testing.T) {
	row, err := parseDistanceRow("10 21 31")
	if err != nil || len(row) != 3 || row[2] != 31 {
		t.Fatalf("parseDistanceRow = %v, %v", row, err)
	}
	if _, err := parseDistanceRow("10 x"); err == nil {
		t.Fatal("bad distance accepted")
	}
}

func TestFormatCPUList(t *testing.T) {
	for _, tc := range []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{0, 1}, "0-1"},
		{[]int{0, 1, 2, 3, 8, 10, 11}, "0-3,8,10-11"},
	} {
		if got := FormatCPUList(tc.in); got != tc.want {
			t.Errorf("FormatCPUList(%v) = %q, want %q", tc.in, got, tc.want)
		}
		back, err := ParseCPUList(FormatCPUList(tc.in))
		if err != nil || !reflect.DeepEqual(back, tc.in) {
			t.Errorf("ParseCPUList(FormatCPUList(%v)) = %v, %v", tc.in, back, err)
		}
	}
}

// TestPinEffect walks the three cases against whatever this process is
// allowed: a covering set constrains nothing, a proper subset does, and
// a set that shares no CPU with the allowed ones cannot be applied.
func TestPinEffect(t *testing.T) {
	allowed, err := Allowed()
	if err != nil {
		if got := PinEffect([]int{0}); got != Inapplicable {
			t.Fatalf("PinEffect without thread affinity (%v) = %v, want Inapplicable", err, got)
		}
		t.Skipf("no thread affinity here: %v", err)
	}
	if len(allowed) == 0 {
		t.Fatal("Allowed() returned no CPUs and no error")
	}
	top := allowed[len(allowed)-1]

	if got := PinEffect(allowed); got != Unconstrained {
		t.Errorf("PinEffect(allowed %v) = %v, want Unconstrained", allowed, got)
	}
	// A superset — a topology describing a bigger host than the cpuset
	// grants — still covers everything the process may use.
	if got := PinEffect(append([]int{top + 1, top + 2}, allowed...)); got != Unconstrained {
		t.Errorf("PinEffect(superset) = %v, want Unconstrained", got)
	}
	if got := PinEffect([]int{top + 1, top + 2}); got != Inapplicable {
		t.Errorf("PinEffect(disjoint) = %v, want Inapplicable", got)
	}
	if len(allowed) < 2 {
		t.Skip("one allowed CPU: no set can constrain")
	}
	if got := PinEffect(allowed[:1]); got != Constrains {
		t.Errorf("PinEffect(%v) = %v, want Constrains", allowed[:1], got)
	}
	// Partly outside the allowed set, partly inside: still a constraint.
	if got := PinEffect([]int{allowed[0], top + 1}); got != Constrains {
		t.Errorf("PinEffect(straddling) = %v, want Constrains", got)
	}
}
