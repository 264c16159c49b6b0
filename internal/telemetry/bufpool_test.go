package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"numastream/internal/bufpool"
	"numastream/internal/metrics"
)

// TestServeBufpoolGauges checks the operator-facing contract from
// DESIGN.md §10: a pool registered on a served registry shows its
// hit/miss/steal counters and the outstanding-lease leak gauge (total
// and per domain) on /metrics.
func TestServeBufpoolGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	pool := bufpool.New(2)
	pool.Register(reg)

	// One hit, one miss, one leaked lease: Get twice in the same class,
	// return one buffer, re-rent it, and keep the other outstanding.
	a := pool.Get(0, 4096)
	leak := pool.Get(0, 4096)
	a.Release()
	b := pool.Get(0, 4096)
	defer b.Release()
	defer leak.Release()

	srv, err := ServeWith("127.0.0.1:0", reg, Options{})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	for _, want := range []string{
		"numastream_" + bufpool.GaugeOutstanding + " 2",
		"numastream_" + bufpool.GaugeOutstanding + "_domain_0 2",
		"numastream_" + bufpool.GaugeOutstanding + "_domain_1 0",
		"numastream_" + bufpool.GaugeMisses,
		"numastream_" + bufpool.GaugeSteals,
		"numastream_" + bufpool.GaugeOversize,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// sync.Pool may drop the returned buffer under the race detector,
	// so only assert the hit counter when it is deterministic.
	if !bufpool.RaceEnabled && !strings.Contains(text, "numastream_"+bufpool.GaugeHits+" 1") {
		t.Errorf("/metrics missing %s = 1:\n%s", bufpool.GaugeHits, text)
	}
}
