package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite METRICS.md from the catalogues")

func TestMetricsDoc(t *testing.T) {
	want := metricsDoc()
	if *update {
		if err := os.WriteFile("METRICS.md", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("METRICS.md is stale: run go test -run TestMetricsDoc -update")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metric
// catalogues the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		list []metric
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.list) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(c.list), len(c.defs))
		}
		for i, m := range c.list {
			if m.Name != c.defs[i].Name || m.Unit != c.defs[i].Unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], catalogue %s [%s]", i, m.Name, m.Unit, c.defs[i].Name, c.defs[i].Unit)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	// Distinct values 1, 2, 3 with masses 1/5, 3/5, 1/5: mid-distribution
	// points 0.1, 0.5, 0.9.
	s := []sim.Time{1, 2, 2, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 1}, {0.1, 1}, {0.3, 1.5}, {0.5, 2}, {0.7, 2.5}, {0.9, 3}, {0.999, 3},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Without ties it stays within one sample of the nearest rank.
	u := []sim.Time{10, 20, 30, 40}
	if got := quantile(u, 0.5); got < 20 || got > 30 {
		t.Errorf("quantile(0.5) of %v = %v", u, got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestParseSimTime(t *testing.T) {
	for _, v := range []sim.Time{0, 999, 1000, 3592, 999_999, 1_234_567, 2 * sim.Second} {
		got, err := parseSimTime(v.String())
		// From 1 ms up, sim.Time.String rounds to µs; from 1 s up, to ms.
		want := v
		switch {
		case v >= sim.Second:
			want = sim.Time(math.Round(float64(v)/1e6)) * sim.Millisecond
		case v >= sim.Millisecond:
			want = sim.Time(math.Round(float64(v)/1e3)) * sim.Microsecond
		}
		if err != nil || got != want {
			t.Errorf("parseSimTime(%q) = %v, %v; want %v", v.String(), got, err, want)
		}
	}
	if _, err := parseSimTime("3.5parsecs"); err == nil {
		t.Error("parseSimTime accepted a bad unit")
	}
}
