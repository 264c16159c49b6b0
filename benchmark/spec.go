package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json is the single definition of the metric and workload
// names, their units, directions and regression bounds; the harness
// reads it instead of repeating the tables.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory (the checkout
// root, where run.sh starts the harness) or its parent (go test runs in
// benchmark/).
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return spec, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// metrics returns the metric list one run mode emits.
func (s benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
