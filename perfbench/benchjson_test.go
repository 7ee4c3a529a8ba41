package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json (at the repository root) names the metrics of the
// final JSON line; emit fails a run that lacks one, so the lists here
// and there must agree.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end = %v, main.go lists %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer = %v, main.go lists %v", got, perLayer)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}
