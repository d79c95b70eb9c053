package main

import (
	"fmt"
	"strings"
	"testing"
)

func series(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestJudge(t *testing.T) {
	parent := series(100, 1, 10) // 100..104, spread about 3%
	for _, c := range []struct {
		name         string
		change       []float64
		better       string
		bound        float64
		moreFailures bool
		want         string
	}{
		{"faster on every pair", series(90, 1, 10), "lower", 0.1, false, "gain"},
		{"faster, but more failures", series(90, 1, 10), "lower", 0.1, true, "same"},
		{"identical", series(100, 1, 10), "lower", 0.1, false, "same"},
		{"slower within the bound", series(105, 1, 10), "lower", 0.1, false, "same"},
		{"slower beyond the bound", series(120, 1, 10), "lower", 0.1, false, "regression"},
		{"higher-is-better throughput dropped", series(80, 1, 10), "higher", 0.1, false, "regression"},
		{"noisy change", series(60, 20, 10), "lower", 0.1, false, "unresolved"},
	} {
		if got := judge(parent, c.change, c.better, c.bound, c.moreFailures); got.kind != c.want {
			t.Errorf("%s: %v, want %s", c.name, got, c.want)
		}
	}
	// Wins in 8 pairs of 10 are not enough for a gain.
	change := series(90, 1, 10)
	change[0], change[1] = 200, 200
	if got := judge(parent, change, "lower", 0.25, false); got.kind == "gain" || got.wins != 8 {
		t.Errorf("8/10 wins judged %v", got)
	}
}

// runText renders a recorded run as the benchmark prints it.
func runText(w string, seed int64, start int64, digest string, latency float64) string {
	return fmt.Sprintf("bench: workload=%s seed=%d seconds=20 trace=0 start_unix_ns=%d\n"+
		"latency_ms %v ms\nsim_digest %s\n"+
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":%v,"unit":"ms"}}}`+"\n",
		w, seed, start, latency, digest, latency)
}

func TestParseRunsAndPairing(t *testing.T) {
	var parent, change strings.Builder
	for i := int64(0); i < minPairs; i++ {
		// Alternate which side ran first.
		p, c := 2*i, 2*i+1
		if i%2 == 1 {
			p, c = c, p
		}
		parent.WriteString(runText("campaign", i, p, "aaaa", 100))
		change.WriteString(runText("campaign", i, c, "aaaa", 90))
	}
	p, err := parseRuns(strings.NewReader(parent.String()))
	if err != nil || len(p) != minPairs {
		t.Fatalf("parsed %d runs, err %v", len(p), err)
	}
	if p[3].seed != 3 || p[3].digest != "aaaa" || p[3].res.Metrics["latency_ms"].Value != 100 {
		t.Fatalf("run 4 parsed as %+v", p[3])
	}
	c, _ := parseRuns(strings.NewReader(change.String()))
	if err := checkPairs(p, c); err != nil {
		t.Fatal(err)
	}
	if err := checkPairs(p[:9], c[:9]); err == nil {
		t.Error("9 pairs accepted")
	}
	c[4].start, p[4].start = p[4].start, c[4].start
	if err := checkPairs(p, c); err == nil {
		t.Error("non-alternating order accepted")
	}
	c[4].start, p[4].start = p[4].start, c[4].start
	c[2].digest = "bbbb"
	spec := &benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"latency_ms", "ms", "lower", 0.1})
	row := compareRow(spec, "campaign", p, c)
	if !strings.Contains(row, "model=CHANGED") || !strings.Contains(row, "latency_ms=gain") {
		t.Errorf("row %q should flag the model change and the latency gain", row)
	}
}
