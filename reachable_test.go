package numastream_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The programs are the only things that run the streaming path, so code
// under internal/ — or in the root package's public API — that no
// program links is code that nothing runs. This test builds every main
// package — cmd/, examples/ and the benchmark harness — for the two
// platforms the repository has kernels for, with inlining off so that no
// call is folded away, and asks the linker's symbol table which library
// functions survived.

// reachPlatforms are the GOARCH values built. arm64 runs the Go
// reference kernels that amd64 replaces with assembly.
var reachPlatforms = []string{"amd64", "arm64"}

// reachAllowlist names the library functions, or whole packages, that
// no program links and that stay anyway, each with its reason. Keys are
// a package path below numastream/internal/ (or "numastream" for the
// root package), then the receiver type if any, then the function:
// "pkg.Func", "pkg.Type.Method" or "pkg".
var reachAllowlist = map[string]string{
	"guardmem": "test support: fuzz and kernel tests put buffers against a PROT_NONE page",

	"bitshuffle.ForcePortable": "tests run the portable reference where the host has the AVX-512 kernels",
	"msgq.writeMessage":        "the scalar frame writer that writeVectored is tested against byte for byte",

	"experiments.AblateRemotePenalty":     "mechanism check run by TestAblate* and make bench",
	"experiments.AblateUncoreContention":  "mechanism check run by TestAblate* and make bench",
	"experiments.AblateContextSwitchTax":  "mechanism check run by TestAblate* and make bench",
	"experiments.AblateMigrationTax":      "mechanism check run by TestAblate* and make bench",
	"experiments.ablationNetworkGap":      "helper of the Ablate* mechanism checks",
	"experiments.ablationDecompressGap":   "helper of the Ablate* mechanism checks",
	"experiments.ablationCompressDecline": "helper of the Ablate* mechanism checks",
	"experiments.fig14Totals":             "helper of the Ablate* mechanism checks",

	"faults.Injector.Listener":     "the refused-accept seam of internal/pipeline's failure tests",
	"faults.Injector.refuseAccept": "the refused-accept seam of internal/pipeline's failure tests",
	"faults.faultListener.Accept":  "the refused-accept seam of internal/pipeline's failure tests",
	"faults.TopoSchedule.Format":   "the round-trip oracle of ParseTopoSchedule's tests",

	"pipeline.Pool.PinFailures": "fault counter that the pinning tests read",
	"pipeline.Pool.Live":        "live-worker count that BenchmarkElasticPoolGrowShrink and the elastic-pool tests wait on",
	"msgq.Pull.ReadErrors":      "fault counter that the msgq interop tests read",
	"metrics.Histogram.Count":   "counter that the histogram tests read",
	"metrics.Histogram.Sum":     "counter that the histogram tests read",
	"sim.Server.Served":         "counter that the hw, netsim and sim tests read to check the bytes a server was charged",
	"sim.Server.BusySeconds":    "counter that the netsim and sim tests read",

	// The benchmark harness imports the root package. Without these the
	// root package stops importing internal/telemetry, the harness links
	// a smaller standard library, and math/rand.read moves from 32 to 0
	// mod 64: raw_passthrough's setup_s, which is mostly the harness's
	// math/rand fill of its input ring, read 1.45× the parent's in 10 of
	// 10 pairs. They go when setup_s no longer times that fill.
	"numastream.ServeTelemetry":        "keeps the benchmark harness's link set (see above)",
	"numastream.TelemetryServer.Addr":  "keeps the benchmark harness's link set (see above)",
	"numastream.TelemetryServer.Close": "keeps the benchmark harness's link set (see above)",
}

func TestEveryInternalFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program twice; skipped under -short")
	}
	linked := map[string]bool{}
	decls := map[string]funcDecl{}
	for _, goarch := range reachPlatforms {
		env := append(os.Environ(), "GOOS=linux", "GOARCH="+goarch, "CGO_ENABLED=0")
		for _, bin := range buildPrograms(t, env) {
			for _, sym := range textSymbols(t, bin) {
				for _, key := range linkedKeys(sym) {
					linked[key] = true
				}
			}
		}
		for key, d := range libraryFuncs(t, env) {
			decls[key] = d
		}
	}

	var dead []funcDecl
	for key, d := range decls {
		if !linked[key] && reachAllowlist[key] == "" && reachAllowlist[d.pkg] == "" {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	lines := 0
	for _, d := range dead {
		t.Errorf("%s:%d %s (%d lines) is linked into no program", d.file, d.line, d.key, d.lines)
		lines += d.lines
	}
	if len(dead) > 0 {
		t.Logf("%d functions, %d lines: delete them, or add each to reachAllowlist with its reason", len(dead), lines)
	}

	pkgs := map[string]bool{}
	for _, d := range decls {
		pkgs[d.pkg] = true
	}
	for key := range reachAllowlist {
		_, isFunc := decls[key]
		switch {
		case !isFunc && !pkgs[key]:
			t.Errorf("reachAllowlist names %s, which is not declared", key)
		case isFunc && linked[key]:
			t.Errorf("reachAllowlist names %s, which a program links: drop the entry", key)
		}
	}
}

// buildPrograms builds every main package for env's platform into a
// temporary directory and returns the executables' paths.
func buildPrograms(t *testing.T, env []string) []string {
	t.Helper()
	list := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	list.Env = env
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(out))
	dir := t.TempDir()
	for _, args := range [][]string{
		append([]string{"build", "-gcflags=all=-l", "-o", dir}, mains...),
		{"build", "-C", "benchmark", "-gcflags=all=-l", "-o", filepath.Join(dir, "benchmark"), "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	bins, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(bins) != len(mains)+1 {
		t.Fatalf("built %d programs, want %d (%v)", len(bins), len(mains)+1, err)
	}
	return bins
}

// textSymbols lists the module's text symbols in the executable bin.
func textSymbols(t *testing.T, bin string) []string {
	t.Helper()
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "<addr> <type> <name>"; the name may contain spaces.
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") && (strings.HasPrefix(f[2], "numastream/") || strings.HasPrefix(f[2], "numastream.")) {
			syms = append(syms, f[2])
		}
	}
	return syms
}

// linkedKeys maps one linked symbol to the declarations it proves
// linked, in reachAllowlist's key form. Type arguments and ABI suffixes
// go, a closure or method value counts for its enclosing function, and
// a method linked through its pointer receiver counts for the value
// receiver too. Both the first name and the first two names are
// returned, because "F.func1" (a closure) and "T.M" (a value-receiver
// method) look alike; a package cannot declare both F and T under one
// name, so the extra key never matches a wrong declaration.
func linkedKeys(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimPrefix(b.String(), "numastream/internal/")
	if s == b.String() && !strings.HasPrefix(s, "numastream.") {
		return nil
	}
	s = strings.TrimSuffix(s, ".abi0")
	s = strings.TrimSuffix(s, "-fm")
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return nil
	}
	pkg, name := s[:slash+1+dot], s[slash+1+dot+1:]
	if strings.HasPrefix(name, "(*") {
		recv, rest, ok := strings.Cut(name[2:], ").")
		if !ok {
			return nil
		}
		method, _, _ := strings.Cut(rest, ".")
		return []string{pkg + "." + recv + "." + method}
	}
	parts := strings.Split(name, ".")
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, pkg+"."+parts[0]+"."+parts[1])
	}
	return keys
}

// funcDecl is one function or method declared with a body.
type funcDecl struct {
	key, pkg string
	file     string // relative to the module root
	line     int
	lines    int // with its doc comment
}

// libraryFuncs parses the non-test files that env's platform compiles
// in the root package and in every numastream/internal package.
func libraryFuncs(t *testing.T, env []string) map[string]funcDecl {
	t.Helper()
	list := exec.Command("go", "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, ".", "./internal/...")
	list.Env = env
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]funcDecl{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		pkg := strings.TrimPrefix(f[0], "numastream/internal/")
		for _, name := range f[2:] {
			path := filepath.Join(f[1], name)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, path)
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Name.Name == "_" {
					continue
				}
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				start := fn.Pos()
				if fn.Doc != nil {
					start = fn.Doc.Pos()
				}
				decls[key] = funcDecl{
					key:   key,
					pkg:   pkg,
					file:  rel,
					line:  fset.Position(fn.Pos()).Line,
					lines: fset.Position(fn.End()).Line - fset.Position(start).Line + 1,
				}
			}
		}
	}
	return decls
}

// recvName is the type name of a receiver: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

func TestLinkedKeys(t *testing.T) {
	for _, c := range []struct {
		sym      string
		want     string // a key the symbol must yield; "" for none at all
		mustMiss string // a key it must not yield
	}{
		// A generic method, instantiated with a shape type that itself
		// holds dots, slashes and brackets.
		{"numastream/internal/queue.(*Queue[go.shape.struct { numastream/internal/pipeline.c []uint8 }]).Put", "queue.Queue.Put", ""},
		{"numastream/internal/queue.New[go.shape.*uint8]", "queue.New", ""},
		// An assembly kernel's ABI wrapper.
		{"numastream/internal/lz4.encodeBlock.abi0", "lz4.encodeBlock", ""},
		// A value-receiver method linked through its pointer wrapper.
		{"numastream/internal/faults.(*TopoSchedule).Format", "faults.TopoSchedule.Format", ""},
		{"numastream/internal/faults.TopoSchedule.Format", "faults.TopoSchedule.Format", ""},
		// Closures, go and defer wrappers and method values.
		{"numastream/internal/numa.discoverSysfs.func1", "numa.discoverSysfs", ""},
		{"numastream/internal/netsim.(*Path).Send.func1.1", "netsim.Path.Send", ""},
		{"numastream/internal/msgq.(*Push).Connect.gowrap2", "msgq.Push.Connect", ""},
		{"numastream/internal/metrics.(*Registry).Histogram.deferwrap1", "metrics.Registry.Histogram", ""},
		{"numastream/internal/obs.(*Engine).Observe-fm", "obs.Engine.Observe", ""},
		// A plain miss: a longer name proves nothing about its prefix.
		{"numastream/internal/lz4.CompressBlockLiterals", "lz4.CompressBlockLiterals", "lz4.CompressBlock"},
		// The root package.
		{"numastream.StartReceiver", "numastream.StartReceiver", ""},
		{"numastream.(*Server).Close", "numastream.Server.Close", ""},
		// Outside the module's libraries.
		{"main.main", "", ""},
		{"runtime.main", "", ""},
	} {
		keys := linkedKeys(c.sym)
		got := map[string]bool{}
		for _, k := range keys {
			got[k] = true
		}
		if c.want == "" && len(keys) != 0 {
			t.Errorf("linkedKeys(%q) = %q, want none", c.sym, keys)
		}
		if c.want != "" && !got[c.want] {
			t.Errorf("linkedKeys(%q) = %q, want %q among them", c.sym, keys, c.want)
		}
		if got[c.mustMiss] {
			t.Errorf("linkedKeys(%q) = %q, must not contain %q", c.sym, keys, c.mustMiss)
		}
	}
}
