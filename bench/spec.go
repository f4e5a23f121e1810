package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one place that names the workloads and
// the metrics, their units, directions and regression bounds.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, one level above
// this package's directory, where the program runs.
func loadSpec() (*benchSpec, error) {
	path := filepath.Join("..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics lists every declared metric, end-to-end first.
func (s *benchSpec) metrics() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...)
}

func (s *benchSpec) unit(name string) string {
	for _, m := range s.metrics() {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
