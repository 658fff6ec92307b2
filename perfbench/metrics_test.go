package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json, which
// the runs are judged by, in step with the metrics the program reports.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section string
		got     []struct{ Name, Unit string }
		want    []metricDef
	}{
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the program reports %d", c.section, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", c.section, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}

func TestEndToEndMetricsTakeTheMedianRound(t *testing.T) {
	// Three rounds of 1000 queries and 100 appended rows; the middle one
	// ran twice as slow throughout. Each figure is the median round's.
	ps := &pass{queries: 3000, attempted: 3300}
	for r, slow := range []float64{1, 2, 1.1} {
		for i := 1; i <= 1000; i++ {
			ps.latUS = append(ps.latUS, slow*float64(i))
		}
		ps.appendRows += 100
		ps.appendNS += int64(slow * 1e6)
		ps.endRound()
		if len(ps.rounds) != r+1 {
			t.Fatalf("rounds = %d after round %d", len(ps.rounds), r)
		}
	}
	m, label := endToEndMetrics(ps, setupStats{seconds: []float64{1}})
	want := map[string]float64{
		"query_p50_us":      1.1 * 500.5,
		"query_p99_us":      1.1 * 990,
		"queries_per_s":     1000 / (1.1 * 500500 / 1e6),
		"append_rows_per_s": 100 / 1.1e-3,
	}
	for name, w := range want {
		if got := m[name]; math.Abs(got-w) > 1e-6*w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if label != "p99" {
		t.Errorf("label = %s, want p99 (10 samples beyond it in every round)", label)
	}
}
