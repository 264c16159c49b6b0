package experiments

import (
	"encoding/json"
	"testing"

	"numastream/internal/adapt"
)

// TestAdaptSimConverges is the drill's acceptance test: from the
// deliberately bad config the controller must reach within 10% of the
// tuned configuration's tail throughput, the first action must grow
// compress, and the tuned config must produce zero actions.
func TestAdaptSimConverges(t *testing.T) {
	r, err := AdaptSim(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, FormatAdaptSim(r))
	}
	t.Logf("\n%s", FormatAdaptSim(r))
}

// TestAdaptSimDeterministic: same seed, byte-identical result —
// action log, regime story, throughput numbers, everything.
func TestAdaptSimDeterministic(t *testing.T) {
	a, err := AdaptSim(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdaptSim(7)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same seed diverged:\n%s\n%s", aj, bj)
	}
}

// TestAdaptSimTunedSilent pins the do-nothing band on its own: the
// tuned config with the controller attached logs no actions and the
// worker counts stay exactly at the configured values.
func TestAdaptSimTunedSilent(t *testing.T) {
	bad, err := runAdaptCell(3, adaptBadSender(), adaptBadReceiver(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAdaptCell(3, adaptTunedSender(), drillReceiver(), bad.finish/96, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.actions) != 0 {
		t.Fatalf("tuned config produced actions:\n%s", adapt.FormatActions(res.actions))
	}
	if res.windows == 0 {
		t.Fatal("tuned cell resolved no windows — the silence proves nothing")
	}
}
