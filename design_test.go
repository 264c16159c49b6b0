package numastream_test

import (
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventory: the package table of DESIGN.md §3 names every
// package `go list ./...` lists, and nothing else, so a package added
// without a row, or a row left behind by a deleted package, fails here.
// A row's first cell is the package path below the module ("numastream"
// for the root package), in backquotes.
func TestDesignInventory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := designRows(t, string(doc))

	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	listed := map[string]bool{}
	for _, path := range strings.Fields(string(out)) {
		listed[strings.TrimPrefix(path, "numastream/")] = true
	}

	for _, p := range sortedKeys(listed) {
		if !rows[p] {
			t.Errorf("package %s has no row in DESIGN.md §3", p)
		}
	}
	for _, p := range sortedKeys(rows) {
		if !listed[p] {
			t.Errorf("DESIGN.md §3 has a row for %s, which go list does not list", p)
		}
	}
}

// designRows returns the package each row of §3's table names.
func designRows(t *testing.T, doc string) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cell, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		pkg, _, ok := strings.Cut(cell, "`")
		if !ok || rows[pkg] {
			t.Fatalf("DESIGN.md §3: malformed or repeated row %q", line)
		}
		rows[pkg] = true
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §3 has no package rows")
	}
	return rows
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
