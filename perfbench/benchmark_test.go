package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this package reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, code reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, code reports %+v", i, m, want)
		}
	}
}

func TestRunSeeds(t *testing.T) {
	w := workloadSpec{seedsPerRun: 4}
	got := w.runSeeds(3)
	want := []int64{12, 13, 14, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("runSeeds(3) = %v, want %v", got, want)
		}
	}
	if s := tracedSeeds(w, 0); len(s) != 4 || s[0] != 0 {
		t.Errorf("tracedSeeds(0) = %v: seed 0 is already in the run", s)
	}
	if s := tracedSeeds(w, 2); len(s) != 5 || s[4] != 0 {
		t.Errorf("tracedSeeds(2) = %v, want the run's seeds and 0", s)
	}
	if s, err := parseSeeds("0-2,7"); err != nil || len(s) != 4 || s[3] != 7 {
		t.Errorf(`parseSeeds("0-2,7") = %v, %v`, s, err)
	}
}
