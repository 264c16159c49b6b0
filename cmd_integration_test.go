package numastream_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Integration tests for the command-line tools: build each binary once
// and drive realistic invocations end to end.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildTools compiles the cmd binaries into a shared temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "numastream-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"confgen", "topoinfo", "nsdata", "numastream", "experiments", "loadgen"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("building %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), bin), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCLIConfgenEmitsValidJSON(t *testing.T) {
	out := run(t, "confgen", "-role", "receiver", "-node", "gw",
		"-sockets", "2", "-cores", "16", "-nic-socket", "1",
		"-streams", "4", "-compression")
	var cfg map[string]any
	if err := json.Unmarshal([]byte(out), &cfg); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if cfg["role"] != "receiver" || cfg["node"] != "gw" {
		t.Fatalf("config = %v", cfg)
	}
	groups := cfg["groups"].([]any)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestCLIConfgenOSBaseline(t *testing.T) {
	out := run(t, "confgen", "-role", "sender", "-compression", "-os-baseline")
	if !strings.Contains(out, `"mode": "os"`) {
		t.Fatalf("baseline config lacks OS placement:\n%s", out)
	}
}

func TestCLITopoinfo(t *testing.T) {
	out := run(t, "topoinfo")
	if !strings.Contains(out, "nodes:") || !strings.Contains(out, "node 0:") {
		t.Fatalf("topoinfo output:\n%s", out)
	}
}

func TestCLINsdataLifecycle(t *testing.T) {
	dir := t.TempDir()
	scan := filepath.Join(dir, "scan.nscf")
	out := run(t, "nsdata", "generate", "-out", scan, "-angles", "6", "-scale", "16")
	if !strings.Contains(out, "6 projections") {
		t.Fatalf("generate output:\n%s", out)
	}
	out = run(t, "nsdata", "info", scan)
	if !strings.Contains(out, "6 chunks") || !strings.Contains(out, "uint16") {
		t.Fatalf("info output:\n%s", out)
	}
	out = run(t, "nsdata", "verify", scan)
	if !strings.Contains(out, "verified") {
		t.Fatalf("verify output:\n%s", out)
	}
	out = run(t, "nsdata", "ratio", scan)
	if !strings.Contains(out, "average LZ4 ratio") {
		t.Fatalf("ratio output:\n%s", out)
	}
}

func TestCLIExperimentsQuick(t *testing.T) {
	out := run(t, "experiments", "-fig", "11", "-quick")
	if !strings.Contains(out, "Figure 11") || !strings.Contains(out, "100.0") {
		t.Fatalf("experiments output:\n%s", out)
	}
}

func TestCLIStreamingPair(t *testing.T) {
	dir := t.TempDir()
	rcvCfg := filepath.Join(dir, "rcv.json")
	sndCfg := filepath.Join(dir, "snd.json")
	os.WriteFile(rcvCfg, []byte(run(t, "confgen", "-role", "receiver", "-node", "gw",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)
	os.WriteFile(sndCfg, []byte(run(t, "confgen", "-role", "sender", "-node", "src",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)

	const addr = "127.0.0.1:19773"
	recvOut := make(chan string, 1)
	recvErr := make(chan error, 1)
	go func() {
		cmd := exec.Command(filepath.Join(buildTools(t), "numastream"),
			"-config", rcvCfg, "-bind", addr, "-chunks", "4", "-scale", "16", "-synthetic")
		out, err := cmd.CombinedOutput()
		recvOut <- string(out)
		recvErr <- err
	}()

	// The sender's PUSH socket redials until the receiver binds, so
	// launch order does not matter.
	sndOut := run(t, "numastream",
		"-config", sndCfg, "-peers", addr, "-chunks", "4", "-scale", "16", "-synthetic")
	if !strings.Contains(sndOut, `sender "src" done`) {
		t.Fatalf("sender output:\n%s", sndOut)
	}
	out := <-recvOut
	if err := <-recvErr; err != nil {
		t.Fatalf("receiver: %v\n%s", err, out)
	}
	if !strings.Contains(out, `receiver "gw" done`) || !strings.Contains(out, "4 items") {
		t.Fatalf("receiver output:\n%s", out)
	}
}

// TestCLIFaultPlanPair drives numastream's sender fault wiring end to
// end: a -fault-plan corrupt flips one payload bit on the wire, the
// receiver quarantines that chunk, and the two sides reconcile (sent =
// delivered + quarantined). A receiver that still delivered chunks exits
// cleanly; one that quarantined every chunk exits 1 naming both counts.
func TestCLIFaultPlanPair(t *testing.T) {
	dir := t.TempDir()
	rcvCfg := filepath.Join(dir, "rcv.json")
	sndCfg := filepath.Join(dir, "snd.json")
	os.WriteFile(rcvCfg, []byte(run(t, "confgen", "-role", "receiver", "-node", "gw",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)
	os.WriteFile(sndCfg, []byte(run(t, "confgen", "-role", "sender", "-node", "src",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)

	cases := []struct {
		name   string
		addr   string // fixed port, distinct from the other CLI tests
		chunks string
		plan   string
		// wantFail: the receiver delivered nothing, so it exits 1.
		wantFail bool
	}{
		// 8 synthetic chunks at -scale 16 are ~20 KB on the wire, so a
		// 2 KB trigger lands mid-stream.
		{name: "one of eight", addr: "127.0.0.1:19778", chunks: "8", plan: "corrupt@2KB,seed=1"},
		// The first payload-sized write is the only chunk's payload.
		{name: "only chunk", addr: "127.0.0.1:19779", chunks: "1", plan: "corrupt@0,seed=1", wantFail: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recvOut := make(chan string, 1)
			recvErr := make(chan error, 1)
			go func() {
				cmd := exec.Command(filepath.Join(buildTools(t), "numastream"),
					"-config", rcvCfg, "-bind", tc.addr, "-chunks", tc.chunks, "-scale", "16", "-synthetic")
				out, err := cmd.CombinedOutput()
				recvOut <- string(out)
				recvErr <- err
			}()

			sndOut := run(t, "numastream", "-config", sndCfg, "-peers", tc.addr,
				"-chunks", tc.chunks, "-scale", "16", "-synthetic", "-fault-plan", tc.plan)
			out := <-recvOut
			err := <-recvErr
			count := func(out, pattern string) int {
				t.Helper()
				m := regexp.MustCompile(`(?m)^` + pattern + `\s.*?(\d+) (items|events)`).FindStringSubmatch(out)
				if m == nil {
					return 0
				}
				n, err := strconv.Atoi(m[1])
				if err != nil {
					t.Fatalf("%s: %v", pattern, err)
				}
				return n
			}
			sent := count(sndOut, "send")
			delivered := count(out, "delivered_stream_0")
			quarantined := count(out, "chunks_quarantined")
			if tc.wantFail {
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 1 {
					t.Fatalf("receiver that delivered nothing: err %v, want exit status 1\n%s", err, out)
				}
				want := fmt.Sprintf("delivered 0 chunks and quarantined %d", quarantined)
				if !strings.Contains(out, want) {
					t.Fatalf("receiver output lacks %q:\n%s", want, out)
				}
			} else if err != nil {
				t.Fatalf("receiver: %v\n%s", err, out)
			}
			if quarantined < 1 {
				t.Fatalf("corrupt fault quarantined no chunk\nsender:\n%s\nreceiver:\n%s", sndOut, out)
			}
			if sent != delivered+quarantined {
				t.Fatalf("sent %d != delivered %d + quarantined %d\nsender:\n%s\nreceiver:\n%s",
					sent, delivered, quarantined, sndOut, out)
			}
		})
	}
}

// TestCLIFaultPlanOnly: -fault-plan is the one fault syntax; the old
// single-fault flags are unknown and rejected with the usage exit code,
// and so is a plan the grammar does not have, such as a refused-accept
// window, which no program could apply.
func TestCLIFaultPlanOnly(t *testing.T) {
	cmd := exec.Command(filepath.Join(buildTools(t), "numastream"),
		"-config", "unused.json", "-fault-reset-bytes", "100000")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-fault-reset-bytes: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined") {
		t.Fatalf("-fault-reset-bytes not rejected as an unknown flag:\n%s", out)
	}

	for _, args := range [][]string{
		{"numastream", "-config", "unused.json", "-fault-plan", "refuse:0-2"},
		{"loadgen", "-fault-plan", "refuse:0-2"},
	} {
		cmd = exec.Command(filepath.Join(buildTools(t), args[0]), args[1:]...)
		out, err = cmd.CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-fault-plan") {
			t.Fatalf("%s -fault-plan refuse:0-2: err %v, want exit status 2 naming the flag\n%s", args[0], err, out)
		}
	}
}

// promSample matches one Prometheus text-exposition sample line.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func TestCLITelemetryEndpoint(t *testing.T) {
	dir := t.TempDir()
	rcvCfg := filepath.Join(dir, "rcv.json")
	sndCfg := filepath.Join(dir, "snd.json")
	report := filepath.Join(dir, "report.json")
	os.WriteFile(rcvCfg, []byte(run(t, "confgen", "-role", "receiver", "-node", "gw",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)
	os.WriteFile(sndCfg, []byte(run(t, "confgen", "-role", "sender", "-node", "src",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)

	// Fixed ports, distinct from TestCLIStreamingPair's 19773.
	const streamAddr = "127.0.0.1:19774"
	const telemetryAddr = "127.0.0.1:19775"

	var rcvOut bytes.Buffer
	rcv := exec.Command(filepath.Join(buildTools(t), "numastream"),
		"-config", rcvCfg, "-bind", streamAddr, "-serve", "-scale", "16", "-synthetic",
		"-telemetry-addr", telemetryAddr,
		"-report", report, "-report-interval", "20ms")
	rcv.Stdout = &rcvOut
	rcv.Stderr = &rcvOut
	if err := rcv.Start(); err != nil {
		t.Fatalf("starting receiver: %v", err)
	}
	defer rcv.Process.Kill()

	// Wait for the telemetry endpoint to come up.
	scrape := func() (string, error) {
		resp, err := http.Get("http://" + telemetryAddr + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	var page string
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		page, err = scrape()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("telemetry endpoint never came up: %v\nreceiver output:\n%s", err, rcvOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stream a few chunks through, then scrape again: receive-side
	// series must be live and the whole page must parse.
	run(t, "numastream",
		"-config", sndCfg, "-peers", streamAddr, "-chunks", "4", "-scale", "16", "-synthetic")
	page, err = scrape()
	if err != nil {
		t.Fatalf("scrape after stream: %v", err)
	}
	if !strings.Contains(page, "numastream_receive_bytes_total") {
		t.Fatalf("/metrics lacks the receive meter:\n%s", page)
	}
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("unparseable exposition line %q in:\n%s", line, page)
		}
	}

	// SIGINT drains the receiver; it must exit cleanly and write its
	// self-diagnosis report, one verdict per window.
	if err := rcv.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("interrupting receiver: %v", err)
	}
	if err := rcv.Wait(); err != nil {
		t.Fatalf("receiver exit: %v\n%s", err, rcvOut.String())
	}
	if !strings.Contains(rcvOut.String(), `receiver "gw" done`) {
		t.Fatalf("receiver output:\n%s", rcvOut.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var rep struct {
		Windows []struct {
			Verdict string `json:"verdict"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Windows) == 0 {
		t.Fatalf("report has no windows:\n%s", data)
	}
	for i, w := range rep.Windows {
		if w.Verdict == "" {
			t.Fatalf("report window %d carries no verdict:\n%s", i, data)
		}
	}
}

func TestCLIExperimentsCSVAndExtensions(t *testing.T) {
	dir := t.TempDir()
	out := run(t, "experiments", "-fig", "12", "-quick", "-csv", dir)
	if !strings.Contains(out, "bottleneck") {
		t.Fatalf("fig 12 output lacks the bottleneck column:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig12.csv"))
	if err != nil {
		t.Fatalf("fig12.csv: %v", err)
	}
	if !strings.HasPrefix(string(data), "config,threads,recv_domain,e2e_gbps,net_gbps") {
		t.Fatalf("fig12.csv header:\n%s", data[:80])
	}

	out = run(t, "experiments", "-dual-nic", "-fig", "none")
	if !strings.Contains(out, "dual-aligned") {
		t.Fatalf("dual-nic output:\n%s", out)
	}
	out = run(t, "experiments", "-rss", "2", "-fig", "none")
	if !strings.Contains(out, "scattered") {
		t.Fatalf("rss output:\n%s", out)
	}
}

func TestCLIExperimentsWireJourney(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "journey.json")
	out := run(t, "experiments", "-fig", "none", "-quick", "-trace-wire", tracePath)
	if !strings.Contains(out, "Wire-journey loopback") || !strings.Contains(out, "clock offset") {
		t.Fatalf("journey output:\n%s", out)
	}
	if !strings.Contains(out, "merged journey trace") {
		t.Fatalf("no trace confirmation in output:\n%s", out)
	}
	checkJourneyTrace(t, tracePath, "journey-src", "journey-gw")
}

// checkJourneyTrace asserts that a merged cross-process trace file holds
// flow-linked spans on both the sender and receiver tracks: every flow
// start ("ph":"s") on the sender pid has a matching finish ("ph":"f") on
// the receiver pid under the same flow id.
func checkJourneyTrace(t *testing.T, path, senderPid, receiverPid string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pids := map[string]bool{}
	starts := map[string]string{} // flow id -> pid of the "s" event
	finishes := map[string]string{}
	for _, e := range events {
		pid, _ := e["pid"].(string)
		pids[pid] = true
		id, _ := e["id"].(string)
		switch e["ph"] {
		case "s":
			starts[id] = pid
		case "f":
			finishes[id] = pid
		}
	}
	if !pids[senderPid] || !pids[receiverPid] {
		t.Fatalf("trace lacks both process tracks (have %v, want %q and %q)", pids, senderPid, receiverPid)
	}
	if len(starts) == 0 {
		t.Fatalf("trace has no flow events (%d events total)", len(events))
	}
	for id, pid := range starts {
		if pid != senderPid {
			t.Fatalf("flow %s starts on %q, want %q", id, pid, senderPid)
		}
		if fp, ok := finishes[id]; !ok || fp != receiverPid {
			t.Fatalf("flow %s finish = %q, %v; want %q", id, fp, ok, receiverPid)
		}
	}
}

func TestCLIWireTracePair(t *testing.T) {
	dir := t.TempDir()
	rcvCfg := filepath.Join(dir, "rcv.json")
	sndCfg := filepath.Join(dir, "snd.json")
	tracePath := filepath.Join(dir, "journey.json")
	os.WriteFile(rcvCfg, []byte(run(t, "confgen", "-role", "receiver", "-node", "gw",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)
	os.WriteFile(sndCfg, []byte(run(t, "confgen", "-role", "sender", "-node", "src",
		"-sockets", "1", "-cores", "1", "-nic-socket", "0", "-compression")), 0o644)

	// Fixed ports, distinct from the other CLI tests.
	const streamAddr = "127.0.0.1:19776"
	const telemetryAddr = "127.0.0.1:19777"
	const chunks = 6

	var rcvOut bytes.Buffer
	rcv := exec.Command(filepath.Join(buildTools(t), "numastream"),
		"-config", rcvCfg, "-bind", streamAddr, "-serve", "-scale", "16", "-synthetic",
		"-telemetry-addr", telemetryAddr, "-trace", tracePath)
	rcv.Stdout = &rcvOut
	rcv.Stderr = &rcvOut
	if err := rcv.Start(); err != nil {
		t.Fatalf("starting receiver: %v", err)
	}
	defer rcv.Process.Kill()

	scrape := func() (string, error) {
		resp, err := http.Get("http://" + telemetryAddr + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}

	// A sender with -trace-wire stamps a trace context on every frame;
	// the receiver stitches journeys from them without any flag.
	run(t, "numastream", "-config", sndCfg, "-peers", streamAddr,
		"-chunks", "4", "-scale", "16", "-synthetic", "-trace-wire")
	run(t, "numastream", "-config", sndCfg, "-peers", streamAddr,
		"-chunks", "2", "-scale", "16", "-synthetic", "-trace-wire")

	// The journey histograms fill as chunks are delivered; poll until all
	// have landed (deliveries can trail the sender's exit briefly).
	countRe := regexp.MustCompile(`numastream_chunk_e2e_seconds_count (\d+)`)
	var page string
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		page, err = scrape()
		if err == nil {
			if m := countRe.FindStringSubmatch(page); m != nil && m[1] == "6" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("chunk_e2e_seconds never reached %d journeys; err=%v\n/metrics:\n%s\nreceiver:\n%s",
				chunks, err, page, rcvOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Non-empty quantiles: at least one finite bucket below +Inf holds
	// counts, and the sum is a positive number of seconds.
	bucketRe := regexp.MustCompile(`numastream_chunk_e2e_seconds_bucket\{le="[0-9][^"]*"\} ([1-9]\d*)`)
	if !bucketRe.MatchString(page) {
		t.Fatalf("chunk_e2e_seconds has no populated finite buckets:\n%s", page)
	}
	sumRe := regexp.MustCompile(`numastream_chunk_e2e_seconds_sum ([0-9.e+-]+)`)
	m := sumRe.FindStringSubmatch(page)
	if m == nil || m[1] == "0" {
		t.Fatalf("chunk_e2e_seconds_sum missing or zero: %v", m)
	}
	if !strings.Contains(page, "numastream_chunk_wire_seconds_count 6") {
		t.Fatalf("chunk_wire_seconds not populated:\n%s", page)
	}
	if !strings.Contains(page, "numastream_trace_ctx_bad_total 0") {
		t.Fatalf("bad trace contexts reported:\n%s", page)
	}

	// SIGINT drains the receiver; the dumped trace is the merged journey
	// trace: sender spans (offset-corrected, pid "src") flow-linked into
	// the receiver's own spans (pid "gw").
	if err := rcv.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("interrupting receiver: %v", err)
	}
	if err := rcv.Wait(); err != nil {
		t.Fatalf("receiver exit: %v\n%s", err, rcvOut.String())
	}
	checkJourneyTrace(t, tracePath, "src", "gw")
}

func TestCLIExperimentsTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "gw.json")
	out := run(t, "experiments", "-fig", "14", "-trace", tracePath)
	if !strings.Contains(out, "1.48X") {
		t.Fatalf("fig 14 output:\n%s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
}
