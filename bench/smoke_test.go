package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when a run
// spawns its processes under test.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// resultsOf returns the result line of every run in out.
func resultsOf(t *testing.T, out string) []result {
	t.Helper()
	var rs []result
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			rs = append(rs, r)
		}
	}
	return rs
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeAllWorkloads runs both passes of all four workloads at toy size
// and checks that each prints exactly its metric set and passes its checks.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	tmp := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark runs from the root of the checkout.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-seconds", "3", "-seed", "1", "-trace", trace,
			"-spans", filepath.Join(tmp, "spans"), "-build-dir", tmp}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%s: exit %d\n%s\n%s", trace, code, stdout.String(), stderr.String())
		}
		want := names(endToEnd)
		if trace == "1" {
			want = names(perLayer)
		}
		rs := resultsOf(t, stdout.String())
		if len(rs) != len(workloads) {
			t.Fatalf("trace=%s: %d result lines for %d workloads", trace, len(rs), len(workloads))
		}
		for i, r := range rs {
			var got []string
			for k := range r.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%s printed metrics %v, want %v", workloads[i], trace, got, want)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%s: %+v", workloads[i], trace, r)
			}
		}
		if trace == "1" {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(tmp, "spans", w+".spans.jsonl")); err != nil {
					t.Errorf("no spans for %s: %v", w, err)
				}
			}
		}
	}
}
