package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianOddPicksMiddle(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
}

// An even sample count has no middle element; the median must average the
// middle pair, not arbitrarily pick one of them.
func TestMedianEvenAveragesMiddlePair(t *testing.T) {
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median(4,1,2,3) = %v, want 2.5", got)
	}
	if got := median([]float64{10, 20}); got != 15 {
		t.Errorf("median(10,20) = %v, want 15", got)
	}
}

const benchmemOutput = `goos: linux
cpu: Test CPU @ 2.0GHz
BenchmarkRunUntraced-8      12    100000000 ns/op    5242880 B/op    59 allocs/op
BenchmarkRunUntraced-8      12    110000000 ns/op    5242880 B/op    61 allocs/op
BenchmarkNewHotness-8       50     20000000 ns/op    1048576 B/op    10 allocs/op
`

func TestParseBenchmem(t *testing.T) {
	parsed, h, err := parse(strings.NewReader(benchmemOutput))
	if err != nil {
		t.Fatal(err)
	}
	if h.cpu != "Test CPU @ 2.0GHz" || h.procs != 8 {
		t.Errorf("host = %+v, want the cpu: line and GOMAXPROCS 8", h)
	}
	h.load = "0.50 0.40 0.30"
	if got, want := h.String(), "Test CPU @ 2.0GHz; GOMAXPROCS 8; load average 0.50 0.40 0.30"; got != want {
		t.Errorf("host note = %q, want %q", got, want)
	}
	s := parsed["BenchmarkRunUntraced"]
	if s == nil || len(s.ns) != 2 || len(s.allocs) != 2 {
		t.Fatalf("BenchmarkRunUntraced samples = %+v, want 2 ns + 2 allocs", s)
	}
	meds := reduce(parsed)
	m := meds["BenchmarkRunUntraced"]
	if !m.hasMem || m.allocs != 60 {
		t.Errorf("allocs median = %+v, want hasMem with 60 (mean of 59, 61)", m)
	}
	if m.ns != 105000000 {
		t.Errorf("ns median = %v, want 105000000", m.ns)
	}
	if m.bytes != 5242880 {
		t.Errorf("bytes median = %v, want 5242880", m.bytes)
	}
}

func TestParseWithoutBenchmem(t *testing.T) {
	parsed, _, err := parse(strings.NewReader(
		"BenchmarkRunUntraced-8      12    100000000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	meds := reduce(parsed)
	if m := meds["BenchmarkRunUntraced"]; m.hasMem {
		t.Errorf("hasMem = true for output without -benchmem columns: %+v", m)
	}
}

// compareResult runs compare with captured output.
func compareResult(t *testing.T, base Baseline, meds map[string]medians, threshold, allocThreshold float64) (int, string, string) {
	t.Helper()
	var out, errw strings.Builder
	code := compare(&out, &errw, base, meds, nil, threshold, allocThreshold)
	return code, out.String(), errw.String()
}

// A benchmark added since the baseline was recorded must be reported but
// excluded from the geomean: here the added benchmark is 10x slower than
// anything gated, yet the verdict stays ok.
func TestCompareAddedBenchmarkWarnsAndSkips(t *testing.T) {
	base := Baseline{NsPerOp: map[string]float64{"BenchmarkOld": 100}}
	meds := map[string]medians{
		"BenchmarkOld": {ns: 100},
		"BenchmarkNew": {ns: 1e9},
	}
	code, out, _ := compareResult(t, base, meds, 1.10, 1.10)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (added benchmark must not gate)", code)
	}
	if !strings.Contains(out, "BenchmarkNew") || !strings.Contains(out, "no baseline, ignored") {
		t.Errorf("added benchmark not warned about:\n%s", out)
	}
	if !strings.Contains(out, "geomean over 1 gated benchmark(s)") {
		t.Errorf("geomean should cover only the common benchmark:\n%s", out)
	}
}

// A benchmark removed since the baseline must be reported but not fail the
// gate.
func TestCompareRemovedBenchmarkIgnored(t *testing.T) {
	base := Baseline{NsPerOp: map[string]float64{
		"BenchmarkKept": 100, "BenchmarkGone": 100}}
	meds := map[string]medians{"BenchmarkKept": {ns: 100}}
	code, out, _ := compareResult(t, base, meds, 1.10, 1.10)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.Contains(out, "BenchmarkGone") || !strings.Contains(out, "missing from this run") {
		t.Errorf("removed benchmark not reported:\n%s", out)
	}
}

func TestCompareNsRegressionFails(t *testing.T) {
	base := Baseline{NsPerOp: map[string]float64{"BenchmarkX": 100}}
	meds := map[string]medians{"BenchmarkX": {ns: 150}}
	code, _, errs := compareResult(t, base, meds, 1.10, 1.10)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for a 50%% slowdown", code)
	}
	if !strings.Contains(errs, "geomean slowdown") {
		t.Errorf("stderr should name the geomean failure: %q", errs)
	}
}

// An allocation regression must fail even when ns/op is flat — the whole
// point of gating allocs/op separately.
func TestCompareAllocRegressionFails(t *testing.T) {
	base := Baseline{
		NsPerOp:     map[string]float64{"BenchmarkX": 100},
		AllocsPerOp: map[string]float64{"BenchmarkX": 59},
	}
	meds := map[string]medians{"BenchmarkX": {ns: 100, allocs: 150, hasMem: true}}
	code, _, errs := compareResult(t, base, meds, 1.10, 1.10)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for an alloc regression with flat ns/op", code)
	}
	if !strings.Contains(errs, "allocs/op") {
		t.Errorf("stderr should name the alloc failure: %q", errs)
	}
}

// Small alloc jitter within the threshold passes, and a baseline without
// alloc data never alloc-gates.
func TestCompareAllocTolerance(t *testing.T) {
	base := Baseline{
		NsPerOp:     map[string]float64{"BenchmarkX": 100},
		AllocsPerOp: map[string]float64{"BenchmarkX": 59},
	}
	meds := map[string]medians{"BenchmarkX": {ns: 100, allocs: 61, hasMem: true}}
	if code, _, _ := compareResult(t, base, meds, 1.10, 1.10); code != 0 {
		t.Errorf("exit = %d, want 0 for allocs within threshold", code)
	}

	noAllocs := Baseline{NsPerOp: map[string]float64{"BenchmarkX": 100}}
	meds = map[string]medians{"BenchmarkX": {ns: 100, allocs: 1e6, hasMem: true}}
	if code, _, _ := compareResult(t, noAllocs, meds, 1.10, 1.10); code != 0 {
		t.Errorf("exit = %d, want 0 when the baseline has no alloc data", code)
	}
}

// A buffer that grows with run length reallocates rarely: allocs/op stays
// flat while B/op balloons. The B/op gate must fail it on its own, and a
// baseline recorded before B/op was tracked must report it without gating.
func TestCompareBytesRegressionFailsWithFlatAllocs(t *testing.T) {
	base := Baseline{
		NsPerOp:     map[string]float64{"BenchmarkX": 100},
		AllocsPerOp: map[string]float64{"BenchmarkX": 72},
		BytesPerOp:  map[string]float64{"BenchmarkX": 12.7e6},
	}
	meds := map[string]medians{"BenchmarkX": {ns: 100, allocs: 72, bytes: 291e6, hasMem: true}}
	code, _, errs := compareResult(t, base, meds, 1.10, 1.10)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for a B/op regression with flat allocs/op", code)
	}
	if !strings.Contains(errs, "B/op") || strings.Contains(errs, "allocs/op") {
		t.Errorf("stderr should name only the B/op failure: %q", errs)
	}

	base.BytesPerOp = nil
	code, out, _ := compareResult(t, base, meds, 1.10, 1.10)
	if code != 0 {
		t.Errorf("exit = %d, want 0 when the baseline has no B/op data", code)
	}
	if !strings.Contains(out, "B/op  (no baseline, ignored)") {
		t.Errorf("B/op without a baseline should be reported as ignored:\n%s", out)
	}
}

func TestAllocRegressedZeroBaseline(t *testing.T) {
	if allocRegressed(0, 0, 1.10) {
		t.Error("0 -> 0 is not a regression")
	}
	if !allocRegressed(0, 1, 1.10) {
		t.Error("0 -> 1 must regress: a zero-alloc loop gained an allocation")
	}
}

func TestGeomeanMath(t *testing.T) {
	// Two gated benchmarks at +21% and -10%: geomean = sqrt(1.21*0.9) ≈ 1.0436.
	base := Baseline{NsPerOp: map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100}}
	meds := map[string]medians{
		"BenchmarkA": {ns: 121},
		"BenchmarkB": {ns: 90},
	}
	want := math.Sqrt(1.21 * 0.9)
	if code, _, _ := compareResult(t, base, meds, want+0.001, 1.10); code != 0 {
		t.Error("geomean just under threshold should pass")
	}
	if code, _, _ := compareResult(t, base, meds, want-0.001, 1.10); code != 1 {
		t.Error("geomean just over threshold should fail")
	}
}

// TestWriteKeepsReplacedBaselinesInHistory pins the ledger: the first
// -write creates the baseline and no history, and every later one appends
// the baseline it replaces to BENCH_history.json beside it, oldest first.
func TestWriteKeepsReplacedBaselinesInHistory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_baseline.json")
	hpath := filepath.Join(dir, historyFile)
	for i, ns := range []float64{300, 200, 100} {
		meds := map[string]medians{"BenchmarkRunUntraced": {ns: ns, allocs: 60, bytes: 4096, hasMem: true}}
		if err := writeBaseline(path, fmt.Sprintf("run %d", i), meds); err != nil {
			t.Fatal(err)
		}
	}
	var base Baseline
	readJSON(t, path, &base)
	if base.Note != "run 2" || base.NsPerOp["BenchmarkRunUntraced"] != 100 {
		t.Errorf("baseline = %+v, want the last write", base)
	}
	var history []Baseline
	readJSON(t, hpath, &history)
	if len(history) != 2 {
		t.Fatalf("history holds %d baselines, want the 2 replaced", len(history))
	}
	for i, want := range []float64{300, 200} {
		if got := history[i].NsPerOp["BenchmarkRunUntraced"]; got != want || history[i].Note != fmt.Sprintf("run %d", i) {
			t.Errorf("history[%d] = %+v, want run %d at %v ns/op", i, history[i], i, want)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}
