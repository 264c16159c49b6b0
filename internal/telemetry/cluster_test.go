package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"numastream/internal/fleet"
	"numastream/internal/metrics"
	"numastream/internal/obs"
)

// TestServeClusterEndpoints drives the full real-mode scrape loop: two
// nodes serve /status from their own obs engines, a fleet aggregator
// scrapes both over HTTP, and a third server exposes the aggregated
// /cluster and /alerts views.
func TestServeClusterEndpoints(t *testing.T) {
	startNode := func(node string) (*Server, *obs.Engine, *metrics.Registry) {
		reg := metrics.NewRegistry()
		eng := obs.NewEngine(reg, obs.Options{Node: node})
		srv, err := ServeWith("127.0.0.1:0", reg, Options{Obs: eng})
		if err != nil {
			t.Fatalf("serve %s: %v", node, err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv, eng, reg
	}

	sendSrv, sendEng, sendReg := startNode("sender1")
	gwSrv, gwEng, gwReg := startNode("gateway")

	// Give each node a window of traffic.
	sendReg.Meter("compress").Add(1 << 30)
	gwReg.Meter("delivered_stream_0").Add(1 << 28)
	for tick := 0; tick < 2; tick++ {
		sendEng.Observe(obs.Capture(sendReg, float64(tick)))
		gwEng.Observe(obs.Capture(gwReg, float64(tick)))
	}

	agg := fleet.New(fleet.Options{
		Fleet: "http-loop",
		SLOs:  []fleet.SLO{{Metric: "holes", Op: "<=", Threshold: 0}},
	})
	agg.AddSource(fleet.HTTPSource("sender1", fleet.RoleSender, sendSrv.Addr()))
	agg.AddSource(fleet.HTTPSource("gateway", fleet.RoleGateway, gwSrv.Addr()))
	agg.ObserveAt(0)
	if w := agg.ObserveAt(1); w == nil {
		t.Fatal("no cluster window after two observations")
	}

	reg := metrics.NewRegistry()
	srv, err := ServeWith("127.0.0.1:0", reg, Options{Fleet: agg})
	if err != nil {
		t.Fatalf("serve cluster: %v", err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/cluster")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/cluster content type = %q", ctype)
	}
	var st fleet.ClusterStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/cluster does not parse: %v\n%s", err, body)
	}
	if st.Fleet != "http-loop" || st.Window == nil || len(st.Window.Nodes) != 2 {
		t.Fatalf("/cluster = %+v, want both scraped nodes in the window", st)
	}
	for _, nw := range st.Window.Nodes {
		if nw.Err != "" {
			t.Fatalf("node %s unreachable through live scrape: %s", nw.Node, nw.Err)
		}
	}

	text, ctype := get("/cluster?format=text")
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(text, "fleet: http-loop") {
		t.Fatalf("/cluster?format=text = %q (%s)", text, ctype)
	}

	body, ctype = get("/alerts")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/alerts content type = %q", ctype)
	}
	var alerts []fleet.Alert
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatalf("/alerts does not parse: %v\n%s", err, body)
	}
	if len(alerts) != 1 || alerts[0].SLO.Metric != "holes" || alerts[0].State != fleet.AlertOK {
		t.Fatalf("/alerts = %+v, want the holes budget ok", alerts)
	}
}
