package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"numastream/internal/metrics"
	"numastream/internal/trace"
)

func TestWritePrometheusSecondsConversion(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, populatedRegistry())
	out := buf.String()

	// The _ns histogram stays untouched...
	if !strings.Contains(out, `numastream_recv_latency_ns_bucket{le="+Inf"} 3`) {
		t.Fatalf("raw _ns series lost:\n%s", out)
	}
	// ...and a seconds-converted twin appears with divided boundaries:
	// the 3_000_000 ns observation lands in the (2097152, 4194303]
	// bucket, whose seconds boundary is ~0.00419.
	for _, want := range []string{
		"# TYPE numastream_recv_latency_seconds histogram",
		`numastream_recv_latency_seconds_bucket{le="+Inf"} 3`,
		"numastream_recv_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	secBucket := regexp.MustCompile(`numastream_recv_latency_seconds_bucket\{le="([0-9.e+-]+)"\} `)
	found := false
	for _, m := range secBucket.FindAllStringSubmatch(out, -1) {
		if strings.Contains(m[1], ".") || strings.Contains(m[1], "e") {
			found = true
		}
	}
	if !found {
		t.Fatalf("seconds buckets have no fractional boundaries:\n%s", out)
	}
	// The sum converts: 600 + 1000 + 3e6 ns ≈ 0.0030016 s.
	if !strings.Contains(out, "numastream_recv_latency_seconds_sum 0.0030016") {
		t.Fatalf("seconds sum not converted:\n%s", out)
	}
}

func TestServeHealthzAndRuntimeGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := ServeWith("127.0.0.1:0", reg, Options{})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	_, mbody := get(t, base+"/metrics")
	for _, name := range []string{
		"numastream_go_goroutines ",
		"numastream_go_heap_bytes ",
		"numastream_go_gc_pause_total_seconds ",
	} {
		if !strings.Contains(mbody, name) {
			t.Fatalf("/metrics missing %q:\n%s", name, mbody)
		}
	}
	// A live process has goroutines and a heap; the gauges must carry
	// real values, not zeros.
	gor := regexp.MustCompile(`numastream_go_goroutines ([0-9.e+]+)`).FindStringSubmatch(mbody)
	if gor == nil || gor[1] == "0" {
		t.Fatalf("goroutine gauge empty: %v", gor)
	}
	heap := regexp.MustCompile(`numastream_go_heap_bytes ([0-9.e+]+)`).FindStringSubmatch(mbody)
	if heap == nil || heap[1] == "0" {
		t.Fatalf("heap gauge empty: %v", heap)
	}
}

func TestServeTraceEndpoint(t *testing.T) {
	tr := trace.New(0)
	tr.Add(trace.Event{Name: "compress", Process: "snd", Start: 0.001, Duration: 0.002})
	reg := metrics.NewRegistry()
	srv, err := ServeWith("127.0.0.1:0", reg, Options{Tracer: tr})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	defer srv.Close()

	client := &http.Client{}
	resp, err := client.Get("http://" + srv.Addr() + "/trace")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(events) != 1 || events[0]["name"] != "compress" {
		t.Fatalf("/trace events = %v", events)
	}

	// A snapshot is live: add another event, re-fetch, see both.
	tr.Add(trace.Event{Name: "send", Process: "snd", Start: 0.004})
	_, body := get(t, "http://"+srv.Addr()+"/trace")
	if !strings.Contains(body, `"send"`) {
		t.Fatalf("/trace not live:\n%s", body)
	}

	// Without a tracer the endpoint does not exist.
	plain, err := ServeWith("127.0.0.1:0", metrics.NewRegistry(), Options{})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	defer plain.Close()
	if code, _ := get(t, "http://"+plain.Addr()+"/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace without tracer = %d, want 404", code)
	}
}
