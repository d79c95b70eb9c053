// Command benchcheck is a dependency-free benchmark-regression gate in the
// spirit of benchstat: it parses `go test -bench` text, reduces repeated
// counts to per-benchmark medians, and either writes a JSON baseline or
// compares against one, failing when the geometric-mean slowdown across the
// gated benchmarks exceeds a threshold. When the bench output carries
// -benchmem columns, allocations per op are gated too: any gated benchmark
// whose median allocs/op or B/op grows past the alloc threshold fails the
// check, so an accidentally re-introduced hot-loop allocation is caught
// even when it is too cheap to move ns/op, and a buffer that grows with run
// length is caught even when it reallocates too rarely to move allocs/op.
//
// Write a baseline (commit the output as BENCH_baseline.json); the
// baseline it replaces is appended to BENCH_history.json beside it:
//
//	go test -run '^$' -bench . -benchmem -count=6 ./sim | benchcheck -write BENCH_baseline.json
//
// Gate a change against it:
//
//	go test -run '^$' -bench . -benchmem -count=6 ./sim | benchcheck -baseline BENCH_baseline.json
//
// Medians of several counts damp scheduler noise; the geomean (rather than
// any single benchmark) damps it further. Benchmarks present on only one
// side are reported but do not affect the verdict.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference: median ns/op (and, when recorded
// with -benchmem, median allocs/op and B/op) per benchmark, with the machine
// context that produced it recorded for humans reading diffs.
type Baseline struct {
	// Note is free-form provenance (host CPU line from the bench output).
	Note string `json:"note,omitempty"`
	// NsPerOp maps benchmark name (GOMAXPROCS suffix stripped) to the
	// median ns/op across counts.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps benchmark name to the median allocs/op. Absent for
	// baselines recorded without -benchmem; such benchmarks are not
	// alloc-gated.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// BytesPerOp maps benchmark name to the median B/op. Absent for
	// baselines recorded without -benchmem or before B/op was recorded;
	// such benchmarks report B/op but are not gated on it.
	BytesPerOp map[string]float64 `json:"bytes_per_op,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkRunUntraced-8   	       9	 127850275 ns/op	11328728 B/op	     246 allocs/op
//
// The B/op and allocs/op columns only appear under -benchmem.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9]+) allocs/op)?`)

// samples accumulates the repeated-count measurements of one benchmark.
type samples struct {
	ns     []float64
	bytes  []float64 // empty when the run lacked -benchmem
	allocs []float64 // empty when the run lacked -benchmem
}

// medians is one benchmark's noise-damped result.
type medians struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
}

func main() {
	var (
		write          = flag.String("write", "", "write a baseline JSON to this path instead of comparing")
		baseline       = flag.String("baseline", "", "baseline JSON to compare the piped bench output against")
		threshold      = flag.Float64("threshold", 1.10, "fail when geomean(new/old) ns/op exceeds this ratio")
		allocThreshold = flag.Float64("alloc-threshold", 1.10, "fail when any gated benchmark's allocs/op or B/op exceeds this ratio of its baseline")
		filter         = flag.String("filter", "", "regexp restricting which benchmarks participate in the gate")
	)
	flag.Parse()
	if (*write == "") == (*baseline == "") {
		fmt.Fprintln(os.Stderr, "benchcheck: exactly one of -write or -baseline is required")
		os.Exit(2)
	}

	parsed, note, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	if len(parsed) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark lines on stdin (pipe `go test -bench` output)")
		os.Exit(2)
	}
	meds := reduce(parsed)

	if *write != "" {
		if err := writeBaseline(*write, note, meds); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchcheck: wrote %d benchmark medians to %s\n", len(meds), *write)
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	var keep *regexp.Regexp
	if *filter != "" {
		keep, err = regexp.Compile(*filter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: bad -filter: %v\n", err)
			os.Exit(2)
		}
	}
	os.Exit(compare(os.Stdout, os.Stderr, base, meds, keep, *threshold, *allocThreshold))
}

// writeBaseline marshals the medians as a baseline file. Alloc and byte
// medians are only recorded when every parsed benchmark carried them (a
// mixed run would otherwise silently un-gate the missing ones forever).
// historyFile is the trajectory -write keeps beside the baseline: every
// baseline it replaces, oldest first, so re-recording never loses the
// numbers the gate used to hold.
const historyFile = "BENCH_history.json"

// writeBaseline writes the medians as the baseline at path, first
// appending the baseline it replaces, if any, to historyFile in the same
// directory.
func writeBaseline(path, note string, meds map[string]medians) error {
	if err := appendHistory(path); err != nil {
		return err
	}
	b := Baseline{Note: note, NsPerOp: make(map[string]float64, len(meds))}
	allMem := true
	for _, m := range meds {
		if !m.hasMem {
			allMem = false
			break
		}
	}
	if allMem {
		b.AllocsPerOp = make(map[string]float64, len(meds))
		b.BytesPerOp = make(map[string]float64, len(meds))
	}
	for name, m := range meds {
		b.NsPerOp[name] = m.ns
		if allMem {
			b.AllocsPerOp[name] = m.allocs
			b.BytesPerOp[name] = m.bytes
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendHistory appends the baseline at path, if one exists, to the
// history file beside it.
func appendHistory(path string) error {
	old, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var prev Baseline
	if err := json.Unmarshal(old, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	hpath := filepath.Join(filepath.Dir(path), historyFile)
	var history []Baseline
	switch data, err := os.ReadFile(hpath); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &history); err != nil {
			return fmt.Errorf("%s: %w", hpath, err)
		}
	}
	data, err := json.MarshalIndent(append(history, prev), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(hpath, append(data, '\n'), 0o644)
}

// compare prints the per-benchmark table and verdicts and returns the
// process exit code: 0 ok, 1 regression, 2 nothing to gate.
//
// Benchmarks on only one side are reported but never gated: an added
// benchmark has no baseline to regress against, and a removed one has no
// measurement. The ns/op verdict is the geomean ratio across gated
// benchmarks against threshold; the allocs/op and B/op verdicts are
// per-benchmark against allocThreshold (allocation counts and volumes are
// near-deterministic, so one benchmark's regression must not hide in a
// geomean). A memory column the baseline lacks is reported, not gated.
func compare(out, errw io.Writer, base Baseline, meds map[string]medians, keep *regexp.Regexp, threshold, allocThreshold float64) int {
	names := make([]string, 0, len(meds))
	for name := range meds {
		names = append(names, name)
	}
	sort.Strings(names)

	var logSum float64
	var gated int
	var allocFailures []string
	// memGate reports one -benchmem column against its baseline map and
	// records a failure when a gated benchmark regresses past allocThreshold.
	memGate := func(name, unit, mark string, base map[string]float64, now float64, isGated bool) {
		old, ok := base[name]
		if !ok {
			fmt.Fprintf(out, "%-40s %12.0f %s  (no baseline, ignored)\n", name, now, unit)
			return
		}
		fmt.Fprintf(out, "%-40s %12.0f -> %12.0f %s%s\n", name, old, now, unit, mark)
		if isGated && allocRegressed(old, now, allocThreshold) {
			allocFailures = append(allocFailures, fmt.Sprintf(
				"%s: %s %.0f -> %.0f exceeds threshold %.2f", name, unit, old, now, allocThreshold))
		}
	}
	for _, name := range names {
		now := meds[name]
		old, ok := base.NsPerOp[name]
		if !ok {
			fmt.Fprintf(out, "%-40s %12.0f ns/op  (no baseline, ignored)\n", name, now.ns)
			continue
		}
		ratio := now.ns / old
		mark := ""
		isGated := keep == nil || keep.MatchString(name)
		if isGated {
			logSum += math.Log(ratio)
			gated++
		} else {
			mark = "  (not gated)"
		}
		fmt.Fprintf(out, "%-40s %12.0f -> %12.0f ns/op  %+6.1f%%%s\n",
			name, old, now.ns, (ratio-1)*100, mark)
		if !now.hasMem {
			continue
		}
		memGate(name, "allocs/op", mark, base.AllocsPerOp, now.allocs, isGated)
		memGate(name, "B/op", mark, base.BytesPerOp, now.bytes, isGated)
	}
	for name := range base.NsPerOp {
		if _, ok := meds[name]; !ok {
			fmt.Fprintf(out, "%-40s missing from this run (ignored)\n", name)
		}
	}
	if gated == 0 {
		fmt.Fprintln(errw, "benchcheck: no benchmarks in common with the baseline")
		return 2
	}
	geomean := math.Exp(logSum / float64(gated))
	fmt.Fprintf(out, "geomean over %d gated benchmark(s): %+.1f%% (threshold %+.1f%%)\n",
		gated, (geomean-1)*100, (threshold-1)*100)
	failed := false
	if geomean > threshold {
		fmt.Fprintf(errw, "benchcheck: FAIL: geomean slowdown %.3f exceeds %.3f\n", geomean, threshold)
		failed = true
	}
	for _, f := range allocFailures {
		fmt.Fprintf(errw, "benchcheck: FAIL: %s\n", f)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Fprintln(out, "benchcheck: ok")
	return 0
}

// allocRegressed reports whether now allocs/op (or B/op) regresses past the
// ratio threshold of old. A zero baseline tolerates no allocation at all.
func allocRegressed(old, now, threshold float64) bool {
	if old == 0 {
		return now > 0
	}
	return now/old > threshold
}

// parse collects per-benchmark samples from `go test -bench` text and
// returns the cpu: line (if any) as provenance.
func parse(r io.Reader) (map[string]*samples, string, error) {
	out := make(map[string]*samples)
	var note string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "cpu:") {
			note = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, "", fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		s := out[m[1]]
		if s == nil {
			s = &samples{}
			out[m[1]] = s
		}
		s.ns = append(s.ns, v)
		if m[3] != "" {
			by, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, "", fmt.Errorf("bad B/op in %q: %v", line, err)
			}
			a, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, "", fmt.Errorf("bad allocs/op in %q: %v", line, err)
			}
			s.bytes = append(s.bytes, by)
			s.allocs = append(s.allocs, a)
		}
	}
	return out, note, sc.Err()
}

// reduce folds each benchmark's samples to medians. Alloc medians are only
// meaningful when every count carried the -benchmem columns.
func reduce(parsed map[string]*samples) map[string]medians {
	out := make(map[string]medians, len(parsed))
	for name, s := range parsed {
		m := medians{ns: median(s.ns)}
		if len(s.allocs) == len(s.ns) && len(s.allocs) > 0 {
			m.bytes = median(s.bytes)
			m.allocs = median(s.allocs)
			m.hasMem = true
		}
		out[name] = m
	}
	return out
}

// median of the samples (mean of the middle two for even counts).
func median(s []float64) float64 {
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
