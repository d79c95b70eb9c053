package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// -compare judges a change against its parent from recorded runs: each
// file is the concatenated output of untraced runs of one side, made as
// alternating parent/change pairs at matching seeds. Per workload it
// reports every end-to-end metric as a gain (the change wins at least nine
// pairs in ten and the medians differ by more than the parent's
// interquartile range), same (within the metric's bound), regression, or
// unresolved (a side's spread exceeds the bound), and flags a changed
// sim_digest as a changed model.

// record is one recorded run.
type record struct {
	workload string
	seed     int64
	trace    bool
	start    int64
	digest   string
	res      result
}

var headerLine = regexp.MustCompile(`^bench: workload=(\S+) seed=(-?\d+) seconds=\d+ trace=([01]) start_unix_ns=(\d+)$`)

// parseRuns reads recorded runs: a header line, a sim_digest line and a
// final JSON line per run; every other line is ignored.
func parseRuns(r io.Reader) ([]record, error) {
	var out []record
	var cur *record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := headerLine.FindStringSubmatch(line); m != nil {
			seed, _ := strconv.ParseInt(m[2], 10, 64)
			start, _ := strconv.ParseInt(m[4], 10, 64)
			cur = &record{workload: m[1], seed: seed, trace: m[3] == "1", start: start}
			continue
		}
		if cur == nil {
			continue
		}
		if d, ok := strings.CutPrefix(line, "sim_digest "); ok {
			cur.digest = d
		} else if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &cur.res); err != nil {
				return nil, fmt.Errorf("run of %s at seed %d: %w", cur.workload, cur.seed, err)
			}
			out = append(out, *cur)
			cur = nil
		}
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRuns(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := parseRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string][]record)
	for _, r := range runs {
		if !r.trace {
			by[r.workload] = append(by[r.workload], r)
		}
	}
	return by, nil
}

// minPairs is the fewest parent/change pairs a judgement rests on.
const minPairs = 10

func runCompare(w io.Writer, specPath, parentPath, changePath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	parent, err := loadRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return err
	}
	rows := 0
	for _, wl := range spec.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		if err := checkPairs(p, c); err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		fmt.Fprintln(w, compareRow(spec, wl.Name, p, c))
		rows++
	}
	if rows == 0 {
		return fmt.Errorf("no untraced runs of any workload in %s and %s", parentPath, changePath)
	}
	return nil
}

// checkPairs requires at least minPairs pairs at matching seeds, with the
// side that runs first alternating from pair to pair.
func checkPairs(p, c []record) error {
	if len(p) != len(c) {
		return fmt.Errorf("%d parent runs but %d change runs", len(p), len(c))
	}
	if len(p) < minPairs {
		return fmt.Errorf("%d pairs; at least %d are needed", len(p), minPairs)
	}
	for i := range p {
		if p[i].seed != c[i].seed {
			return fmt.Errorf("pair %d ran the parent at seed %d and the change at seed %d", i+1, p[i].seed, c[i].seed)
		}
		if i > 0 && (p[i].start < c[i].start) == (p[i-1].start < c[i-1].start) {
			return fmt.Errorf("pairs %d and %d ran the same side first; alternate the order", i, i+1)
		}
	}
	return nil
}

// verdict is one metric's judgement on one workload.
type verdict struct {
	kind  string  // gain, same, regression, unresolved
	delta float64 // change of the median, as a share of the parent's
	wins  int     // pairs the change read better
	pairs int
}

func (v verdict) String() string {
	return fmt.Sprintf("%s(%+.1f%%,%d/%d)", v.kind, 100*v.delta, v.wins, v.pairs)
}

// judge applies the gain and no-regression rules to paired values.
func judge(pv, cv []float64, better string, bound float64, moreFailures bool) verdict {
	dir := 1.0 // +1 when higher is better
	if better == "lower" {
		dir = -1
	}
	medP, medC := median(pv), median(cv)
	v := verdict{pairs: len(pv)}
	if medP != 0 {
		v.delta = (medC - medP) / medP
	}
	for i := range pv {
		if dir*(cv[i]-pv[i]) > 0 {
			v.wins++
		}
	}
	q1, q3 := quartiles(pv)
	improved := dir * (medC - medP) // > 0 is better
	allBetter := true
	for _, p := range pv {
		for _, c := range cv {
			if dir*(c-p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case !moreFailures && 10*v.wins >= 9*v.pairs && improved > q3-q1:
		v.kind = "gain"
	case spread(pv) > bound || spread(cv) > bound:
		v.kind = "unresolved"
		if allBetter && !moreFailures {
			v.kind = "better"
		}
	case -improved > bound*math.Abs(medP):
		v.kind = "regression"
	default:
		v.kind = "same"
	}
	return v
}

func compareRow(spec *benchSpec, name string, p, c []record) string {
	model := "same"
	failP, failC := 0, 0
	for i := range p {
		if p[i].digest != c[i].digest {
			model = "CHANGED"
		}
		failP += p[i].res.Failed
		failC += c[i].res.Failed
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s pairs=%d model=%s failed=%d/%d", name, len(p), model, failP, failC)
	for _, m := range spec.EndToEnd {
		pv, cv := make([]float64, len(p)), make([]float64, len(c))
		for i := range p {
			pv[i] = p[i].res.Metrics[m.Name].Value
			cv[i] = c[i].res.Metrics[m.Name].Value
		}
		fmt.Fprintf(&b, " %s=%s", m.Name, judge(pv, cv, m.Better, m.Bound, failC > failP))
	}
	return b.String()
}
