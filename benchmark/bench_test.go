package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// quick sizes a run down so the whole package tests in seconds: one
// set-up, 8 MiB of input, 1 s of timed windows, 32 replayed chunks.
func quick(w string, traced bool, dir string) params {
	return params{workload: w, seed: 1, seconds: 1, traced: traced, outDir: dir,
		setups: 1, ringBufs: 8, replayN: 32}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload, in both modes, must run clean and emit exactly the
// metrics BENCHMARK.json names for that mode, once each.
func TestQuickMode(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	layers := map[string]map[string]float64{}
	for _, ws := range spec.Workloads {
		if _, err := findWorkload(ws.Name); err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(quick(ws.Name, traced, dir), spec)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", ws.Name, traced, err)
			}
			if !rep.correct || rep.tally.failed != 0 || rep.tally.attempted < 1 {
				t.Errorf("%s traced=%v: not correct: %v, tally %+v", ws.Name, traced, rep.problems, rep.tally)
			}
			var want, got []string
			for _, m := range spec.metrics(traced) {
				want = append(want, m.Name)
			}
			for _, v := range rep.values {
				got = append(got, v.name)
				if !nameRE.MatchString(v.name) {
					t.Errorf("metric name %q is outside the contract's alphabet", v.name)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v emitted %v, want %v", ws.Name, traced, got, want)
			}
			// The result line must survive a round trip.
			line, err := json.Marshal(rep.result(spec))
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil || len(back.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line does not parse back: %v", ws.Name, traced, err)
			}
			if traced {
				layers[ws.Name] = map[string]float64{}
				for _, v := range rep.values {
					layers[ws.Name][v.name] = v.value
				}
				checkTrace(t, filepath.Join(dir, ws.Name+".trace.json"))
			}
		}
	}

	// The workloads must stress what they were chosen for.
	if n := layers["raw_passthrough"]["lz4.calls"]; n != 0 {
		t.Errorf("raw_passthrough made %v lz4 calls", n)
	}
	// Messages per raw byte: wire bytes times the compression ratio is
	// the raw volume the messages carried.
	perByte := func(w string) float64 {
		return layers[w]["msgq.msgs"] / (layers[w]["msgq.bytes"] * layers[w]["lz4.ratio"])
	}
	if r := perByte("small_chunk_fanin") / perByte("tomo_stream"); r < 58 || r > 70 {
		t.Errorf("small_chunk_fanin sends %.1fx the messages per raw byte of tomo_stream, want about 64x", r)
	}
	for w, m := range layers {
		if m["bufpool.outstanding_end"] != 0 || m["pipeline.failed_share"] != 0 {
			t.Errorf("%s: outstanding_end %v, failed_share %v", w, m["bufpool.outstanding_end"], m["pipeline.failed_share"])
		}
	}
}

// checkTrace asserts the trace file's structure: unique ids, every
// parent present, self time within the span's duration.
func checkTrace(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			ID, Parent int64
			Name       string
			Start      int64 `json:"start_ns"`
			End        int64 `json:"end_ns"`
			Self       int64 `json:"self_ns"`
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[int64]bool{}
	names := map[string]int{}
	for _, s := range doc.Spans {
		if ids[s.ID] || s.ID == 0 {
			t.Fatalf("%s: span id %d repeats or is zero", path, s.ID)
		}
		ids[s.ID] = true
		names[s.Name]++
	}
	for _, s := range doc.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has no parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("%s: span %d (%s) [%d,%d] self %d", path, s.ID, s.Name, s.Start, s.End, s.Self)
		}
	}
	for _, want := range []string{"run", "setup", "runtime.confgen", "msgq.connect", "window",
		"source.blocked", "chunk.e2e", "sink.verify", "replay", "msgq.send", "msgq.recv", "pipeline.crc32",
		"queue.handoff", "bufpool.get_release", "pipeline.ledger_admit", "msgq.stream"} {
		if names[want] == 0 {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}

// The same seed must give the same inputs, checksum table and chunk
// order; another seed must give others.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		build := func(seed int64) *oracle {
			ring := make([]byte, 4*ringBufBytes)
			fillRing(ring, w, seed)
			return newOracle(ring, w, seed)
		}
		order := func(o *oracle) (idx []int) {
			for s := 0; s < w.senders; s++ {
				for seq := uint64(0); seq < 64; seq++ {
					idx = append(idx, o.index(uint32(s), seq))
				}
			}
			return idx
		}
		a, again, other := build(1), build(1), build(2)
		if !slices.Equal(a.sums, again.sums) || !slices.Equal(order(a), order(again)) {
			t.Errorf("%s: seed 1 twice gave different inputs or order", w.name)
		}
		if slices.Equal(a.sums, other.sums) || slices.Equal(order(a), order(other)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs or order", w.name)
		}
		if !a.check(0, 5, a.data(0, 5)) || a.check(0, 5, a.data(0, 6)) {
			t.Errorf("%s: oracle does not tell chunk 5 from chunk 6", w.name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{}
	root := r.add(0, "parent", 0, 100)
	r.add(root, "a", 10, 30)
	r.add(root, "b", 20, 50)   // overlaps a
	r.add(root, "c", 90, 120)  // runs past the parent
	r.add(root, "d", -20, -10) // wholly before it
	r.finish()
	if got := r.spans[0].Self; got != 50 {
		t.Errorf("self time %d, want 50 (100 minus [10,50] and [90,100])", got)
	}
}

func TestMarkSeen(t *testing.T) {
	var s streamState
	if s.markSeen(70) || !s.markSeen(70) || s.markSeen(3) {
		t.Error("exactly-once bitmap miscounts")
	}
}
