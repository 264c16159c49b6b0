package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"numastream/internal/metrics"
)

// sampleLine matches one Prometheus exposition sample:
// name{optional labels} value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func populatedRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Meter("receive").Add(1 << 20)
	reg.Counter("redials").Inc()
	reg.Gauge("peers").Set(2)
	reg.RegisterGauge("decq_depth", func() float64 { return 4 })
	h := reg.Histogram("recv_latency_ns")
	h.Observe(600)  // [512, 1023]
	h.Observe(1000) // [512, 1023]
	h.Observe(3_000_000)
	return reg
}

func TestWritePrometheusFormat(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, populatedRegistry())
	out := buf.String()

	for _, want := range []string{
		"numastream_receive_bytes_total 1048576",
		"numastream_receive_items_total 1",
		"numastream_redials_total 1",
		"numastream_peers 2",
		"numastream_decq_depth 4",
		"# TYPE numastream_recv_latency_ns histogram",
		`numastream_recv_latency_ns_bucket{le="+Inf"} 3`,
		"numastream_recv_latency_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// Every non-comment line must parse as a sample.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, populatedRegistry())
	bucketRe := regexp.MustCompile(`^numastream_recv_latency_ns_bucket\{le="([^"]+)"\} (\d+)$`)
	prevCount := int64(-1)
	prevLe := int64(-1)
	buckets := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		buckets++
		var le int64
		if m[1] == "+Inf" {
			le = int64(^uint64(0) >> 1)
		} else {
			v, err := strconv.ParseInt(m[1], 10, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", m[1], err)
			}
			le = v
		}
		n, _ := strconv.ParseInt(m[2], 10, 64)
		if le < prevLe || n < prevCount {
			t.Fatalf("buckets not cumulative/ordered at %q", line)
		}
		prevLe, prevCount = le, n
	}
	// Two finite buckets (600 and 1000 share one, 3ms its own) + +Inf.
	if buckets != 3 {
		t.Fatalf("bucket lines = %d, want 3", buckets)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"recv":          "recv",
		"decq-depth":    "decq_depth",
		"a.b/c":         "a_b_c",
		"9lives":        "_9lives",
		"send_latency1": "send_latency1",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := populatedRegistry()
	srv, err := ServeWith("127.0.0.1:0", reg, Options{})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /metrics serves the exposition format with the right content type.
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	ct := resp.Header.Get("Content-Type")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "numastream_receive_bytes_total") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	// /debug/vars is valid JSON and carries the published registry.
	code, vars := get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", code)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := decoded["numastream"]; !ok {
		t.Fatal("/debug/vars missing the numastream var")
	}

	// /debug/pprof/ index responds.
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

func TestServeTwiceLatestRegistryWins(t *testing.T) {
	// expvar.Publish is process-global and panics on duplicates; ServeWith
	// must be callable repeatedly with the newest registry visible.
	regA := metrics.NewRegistry()
	regA.Counter("marker_a").Inc()
	srvA, err := ServeWith("127.0.0.1:0", regA, Options{})
	if err != nil {
		t.Fatalf("ServeWith A: %v", err)
	}
	defer srvA.Close()

	regB := metrics.NewRegistry()
	regB.Counter("marker_b").Inc()
	srvB, err := ServeWith("127.0.0.1:0", regB, Options{})
	if err != nil {
		t.Fatalf("ServeWith B: %v", err)
	}
	defer srvB.Close()

	// Each /metrics endpoint serves its own registry.
	_, a := get(t, fmt.Sprintf("http://%s/metrics", srvA.Addr()))
	if !strings.Contains(a, "numastream_marker_a_total") || strings.Contains(a, "marker_b") {
		t.Fatalf("server A /metrics:\n%s", a)
	}
	_, b := get(t, fmt.Sprintf("http://%s/metrics", srvB.Addr()))
	if !strings.Contains(b, "numastream_marker_b_total") || strings.Contains(b, "marker_a") {
		t.Fatalf("server B /metrics:\n%s", b)
	}

	// The process-wide expvar tracks the most recent Serve.
	_, vars := get(t, fmt.Sprintf("http://%s/debug/vars", srvA.Addr()))
	if !strings.Contains(vars, "marker_b") {
		t.Fatal("/debug/vars does not reflect the latest registry")
	}
}
