package experiments

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/metrics"
	"numastream/internal/obs"
	"numastream/internal/telemetry"
)

// TestChurnConcurrentScrape hammers every telemetry endpoint — /metrics,
// /status (all variants) and /healthz — while the real-mode churn drill
// (relays killed and restarted mid-stream) runs against the same
// registry, with the snapshot-diff engine ticking at a tight interval
// underneath. The drill must still deliver exactly-once, the scrapes
// must all succeed, and under -race the whole arrangement must be
// clean: scraping never blocks or corrupts the pipeline. (The TestChurn
// name keeps it inside the Makefile race target's drill pattern.)
func TestChurnConcurrentScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	eng := obs.NewEngine(reg, obs.Options{Interval: 5 * time.Millisecond, Node: "churn-scrape"})
	eng.Start()
	defer eng.Stop()

	srv, err := telemetry.ServeWith("127.0.0.1:0", reg, telemetry.Options{Obs: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	paths := []string{
		"/metrics",
		"/status",
		"/status?streams=1",
		"/status?format=text",
		"/status?log=1",
		"/healthz",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes, scrapeErrs atomic.Int64
	for _, p := range paths {
		url := "http://" + srv.Addr() + p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					scrapeErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					scrapeErrs.Add(1)
				}
				scrapes.Add(1)
			}
		}()
	}

	const chunks, chunkBytes = 32, 32 << 10
	res, err := ChurnLoopback(reg, chunks, chunkBytes, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != int64(res.Streams*chunks) || res.Holes != 0 || res.Abandoned != 0 {
		t.Fatalf("drill under scrape load broke exactly-once: %+v", res)
	}
	if n := scrapeErrs.Load(); n != 0 {
		t.Fatalf("%d scrape failures", n)
	}
	if scrapes.Load() == 0 {
		t.Fatal("no scrapes completed during the drill")
	}

	// The engine watched a churn drill: it must have seen churn windows,
	// and the scoreboard must know the drill's streams.
	eng.Stop()
	sawChurn := false
	for _, w := range eng.Windows() {
		if w.Verdict == obs.VerdictChurnDegraded {
			sawChurn = true
			break
		}
	}
	if !sawChurn {
		t.Fatalf("no churn-degraded window across %d windows", len(eng.Windows()))
	}
	if st := eng.Status(true); len(st.Streams) == 0 {
		t.Fatalf("per-stream scoreboard empty after the drill")
	}
}
