package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesMetrics checks that BENCHMARK.json lists exactly the
// metrics a run prints, with the same units: the end-to-end metrics of an
// untraced run, which every workload reports, and the per-layer metrics of a
// traced run.
func TestManifestMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range spec.EndToEnd {
		listed[m.Name] = m.Unit
	}
	same(t, "end_to_end", listed, endToEnd)
	listed = map[string]string{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = m.Unit
	}
	printed := map[string]string{}
	for k, v := range layerUnits {
		printed[k] = v
	}
	for k, v := range phaseUnits {
		printed[k] = v
	}
	same(t, "per_layer", listed, printed)
	for _, w := range spec.Workloads {
		found := false
		for _, c := range workloads {
			found = found || c.name == w.Name
		}
		if !found {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
}

func same(t *testing.T, what string, listed, printed map[string]string) {
	t.Helper()
	for name, unit := range printed {
		if got, ok := listed[name]; !ok || got != unit {
			t.Errorf("%s: metric %s (%s) is printed but BENCHMARK.json lists %q", what, name, unit, got)
		}
	}
	for name := range listed {
		if _, ok := printed[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, which no run prints", what, name)
		}
	}
}
