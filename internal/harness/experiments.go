package harness

import (
	"fmt"
	"io"
	"slices"

	"doppelganger/internal/engine"
	"doppelganger/internal/pipeline"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// Row is one named configuration of an experiment and, once run, its result.
type Row struct {
	Label  string
	Config sim.Config
	Result sim.Result
}

// Experiment is one table beyond the figure matrix: named configurations run
// on a single workload, how they print, and the paper's claims they check.
type Experiment struct {
	Name  string // the `figures -only` value
	Rows  []Row
	Print func(w io.Writer, workload string, rows []Row)
	Check func(workload string, rows []Row) []ShapeCheck
}

// Experiments is the extensions appendix, then one sensitivity sweep per
// machine axis.
var Experiments = []Experiment{
	extensions(),
	sweep("rob", ints("rob", []int{64, 128, 352, 512}, func(c *pipeline.Config, n int) { c.ROBSize = n })),
	sweep("mshrs", ints("mshrs", []int{4, 8, 16, 32}, func(c *pipeline.Config, n int) { c.Memory.L1MSHRs = n })),
	sweep("predictor", ints("entries", []int{128, 512, 1024, 4096}, func(c *pipeline.Config, n int) { c.Stride.Entries = n })),
	sweep("ports", ints("ports", []int{1, 2, 4}, func(c *pipeline.Config, n int) { c.LoadPorts = n })),
	// The prefetcher shares its stride table with the address predictor.
	sweep("prefetch", []point{
		{"off", func(c *pipeline.Config) { c.PrefetchDegree, c.PrefetchDistance = 0, 0 }},
		{"deg1-dist4", func(c *pipeline.Config) { c.PrefetchDegree, c.PrefetchDistance = 1, 4 }},
		{"deg2-dist12", func(c *pipeline.Config) { c.PrefetchDegree, c.PrefetchDistance = 2, 12 }},
		{"deg4-dist24", func(c *pipeline.Config) { c.PrefetchDegree, c.PrefetchDistance = 4, 24 }},
	}),
}

// Run executes the rows on one workload as a single engine batch. Options
// apply as to the matrix, except Workloads and WarmupInsts (most rows change
// the core a warmup checkpoint would be taken on).
func (e Experiment) Run(workloadName string, opts Options) ([]Row, error) {
	opts.WarmupInsts = 0
	progs, refSums, _, err := prepare(opts, []string{workloadName})
	if err != nil {
		return nil, err
	}
	rows := slices.Clone(e.Rows)
	jobs := make([]batchJob, len(rows))
	for i, r := range rows {
		s, ap := r.Config.Scheme, r.Config.AddressPrediction
		jobs[i] = batchJob{
			Job:      engine.Job{Program: progs[0], Config: r.Config},
			ref:      refSums[0],
			what:     fmt.Sprintf("%s under %s (%v ap=%v)", workloadName, r.Label, s, ap),
			progress: fmt.Sprintf("%-16s %-16s %-7v ap=%-5v", workloadName, r.Label, s, ap),
		}
	}
	if err := runBatch(opts, jobs, func(i int, res sim.Result) { rows[i].Result = res }); err != nil {
		return nil, err
	}
	return rows, nil
}

// extensions is the appendix of the reproduction's beyond-the-paper
// variants: every registry scheme ±AP (the baseline, which defends
// nothing, -AP only), then DoM on modified cores.
func extensions() Experiment {
	var rows []Row
	for _, s := range secure.AllSchemes() {
		rows = append(rows, Row{Label: s.String(), Config: sim.Config{Scheme: s}})
		if s.Info().Threat != 0 {
			rows = append(rows, Row{Label: s.String() + "+AP", Config: sim.Config{Scheme: s, AddressPrediction: true}})
		}
	}
	dom := func(label string, ap bool, set func(*pipeline.Config)) Row {
		cc := sim.DefaultCoreConfig()
		set(&cc)
		return Row{Label: label, Config: sim.Config{Scheme: secure.DoM, AddressPrediction: ap, Core: &cc}}
	}
	rows = append(rows,
		dom("dom+VP", false, func(c *pipeline.Config) { c.ValuePrediction = true }),
		dom("dom+AP-hybrid", true, func(c *pipeline.Config) { c.AddressPredictorKind = pipeline.PredictorHybrid }),
		dom("dom+AP-context", true, func(c *pipeline.Config) { c.AddressPredictorKind = pipeline.PredictorContext }),
		dom("dom+gshare", false, func(c *pipeline.Config) { c.BranchPredictorKind = pipeline.BranchGShare }),
		// Ghost Loads' full shadow set: exception shadows on top of the
		// paper's control and store-address shadows.
		dom("dom+E-shadows", false, func(c *pipeline.Config) { c.ExceptionShadows = true }),
	)
	return Experiment{Name: "extensions", Rows: rows, Print: printExtensions, Check: checkExtensions}
}

func printExtensions(w io.Writer, workloadName string, rows []Row) {
	fmt.Fprintf(w, "Extensions appendix (beyond the paper), workload %q\n", workloadName)
	fmt.Fprintf(w, "  %-16s %10s %8s %10s\n", "configuration", "cycles", "IPC", "vs base")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %10d %8.2f %9.1f%%\n", r.Label, r.Result.Cycles, r.Result.IPC,
			float64(rows[0].Result.Cycles)/float64(r.Result.Cycles)*100)
	}
}

// checkExtensions is §2.3's argument on the gated stream kernel (on
// pointer_chase neither predicts): value prediction recovers less of DoM's
// slowdown than doppelganger loads, as it pays for rollback squashes.
func checkExtensions(workloadName string, rows []Row) []ShapeCheck {
	if workloadName != "stream" {
		return nil
	}
	cycles := make(map[string]uint64, len(rows))
	for _, r := range rows {
		cycles[r.Label] = r.Result.Cycles
	}
	dom, vp, ap := cycles["dom"], cycles["dom+VP"], cycles["dom+AP"]
	return []ShapeCheck{{
		Name:   "vp-underperforms-ap",
		Claim:  "value prediction helps DoM less than doppelganger loads do (§2.3)",
		Pass:   ap < vp && vp < dom,
		Detail: fmt.Sprintf("cycles: dom %d, dom+VP %d, dom+AP %d", dom, vp, ap),
	}}
}

// point is one labelled machine configuration on a sensitivity axis.
type point struct {
	label string
	set   func(*pipeline.Config)
}

// ints makes one point per value, labelled name=value.
func ints(name string, vals []int, set func(*pipeline.Config, int)) []point {
	points := make([]point, len(vals))
	for i, n := range vals {
		points[i] = point{fmt.Sprintf("%s=%d", name, n), func(c *pipeline.Config) { set(c, n) }}
	}
	return points
}

// sweep is the sensitivity experiment for one machine axis, which the
// paper's fixed Table 1 leaves open: each point runs the unsafe baseline,
// DoM and DoM+AP on its core. A sweep checks no claim.
func sweep(axis string, points []point) Experiment {
	var rows []Row
	for _, p := range points {
		cc := sim.DefaultCoreConfig()
		p.set(&cc)
		for _, c := range []sim.Config{{Scheme: secure.Unsafe}, {Scheme: secure.DoM}, {Scheme: secure.DoM, AddressPrediction: true}} {
			c.Core = &cc
			rows = append(rows, Row{Label: p.label, Config: c})
		}
	}
	show := func(w io.Writer, workloadName string, rows []Row) {
		fmt.Fprintf(w, "Sensitivity of DoM+AP recovery to %s (workload %q)\n", axis, workloadName)
		fmt.Fprintf(w, "  %-16s %12s %12s %12s\n", axis, "dom cycles", "dom+AP", "recovered")
		for i := 0; i+2 < len(rows); i += 3 {
			base, dom, domAP := float64(rows[i].Result.Cycles), rows[i+1].Result.Cycles, rows[i+2].Result.Cycles
			// Only meaningful when the scheme actually pays a slowdown at
			// this point (a saturated machine can make all three equal).
			rec := 0.0
			if float64(dom) > 1.01*base {
				rec = (float64(dom) - float64(domAP)) / (float64(dom) - base)
			}
			fmt.Fprintf(w, "  %-16s %12d %12d %11.0f%%\n", rows[i].Label, dom, domAP, rec*100)
		}
	}
	return Experiment{Name: "sensitivity-" + axis, Rows: rows, Print: show,
		Check: func(string, []Row) []ShapeCheck { return nil }}
}
