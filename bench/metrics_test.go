package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	for _, bad := range []string{"", "_lead", "has space", "slash/in", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("bad name %q accepted", bad)
		}
	}
}

func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
	}
}

func TestReportEndsWithResultLine(t *testing.T) {
	values := map[string]float64{}
	for i, d := range endToEnd {
		values[d.Name] = float64(i) + 0.5
	}
	var buf bytes.Buffer
	if err := report(&buf, endToEnd, values, "0123", 10, 0, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[len(lines)-2] != "sim_digest 0123" {
		t.Errorf("digest line %q", lines[len(lines)-2])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10 || len(res.Metrics) != len(endToEnd) ||
		res.Metrics["throughput"].Value != 1.5 || res.Metrics["throughput"].Unit != "1/s" {
		t.Errorf("result %+v", res)
	}
}
