package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Contract is BENCHMARK.json. It, not this program, owns the metric names,
// units, directions and regression bounds: the harness reads them from the
// file and refuses to report a metric the file does not list.
type Contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric's declaration in BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding both BENCHMARK.json and go.mod. The driver starts the
// command there; `go test` starts it in benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no directory with BENCHMARK.json and go.mod above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

func loadContract(root string) (*Contract, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c Contract
	if err := json.Unmarshal(buf, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func (c *Contract) workload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project keeps exactly the metrics specs lists, in the contract's units. A
// measured metric the contract does not list, or a listed one that was not
// measured, is a defect in the harness and is reported as an error.
func project(specs []MetricSpec, measured map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(specs))
	for _, s := range specs {
		v, ok := measured[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", s.Name)
		}
		out[s.Name] = Value{Value: v, Unit: s.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}
