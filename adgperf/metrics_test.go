package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if !unitPattern.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %s", w.Name, metricName)
		}
	}
}

func TestReportRejectsMissingAndUndeclared(t *testing.T) {
	r := newReport([]metricDef{{Name: "a_ms", Unit: "ms"}, {Name: "b_ms", Unit: "ms"}})
	r.set("a_ms", 1)
	if _, err := r.complete(); err == nil {
		t.Fatal("report with a missing metric completed")
	}
	r.set("b_ms", 2)
	if m, err := r.complete(); err != nil || m["b_ms"].Unit != "ms" {
		t.Fatalf("complete = %v, %v", m, err)
	}
	r.set("c_ms", 3)
	if _, err := r.complete(); err == nil {
		t.Fatal("report accepted an undeclared metric")
	}
}

// TestBenchmarkJSONMatches keeps the declared metrics and workloads in step
// with BENCHMARK.json at the repository root.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code declares %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
