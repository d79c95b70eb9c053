package harness

import (
	"context"
	"fmt"
	"io"

	"doppelganger/internal/pipeline"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// ExtensionRow is one configuration in the extensions appendix.
type ExtensionRow struct {
	Label  string
	Result sim.Result
}

// RunExtensions evaluates the reproduction's beyond-the-paper variants on
// one workload: the extra schemes, DoM value prediction, and the hybrid
// predictor, against the paper's configurations. Run options (e.g.
// sim.WithMetrics) apply to every run.
func RunExtensions(workloadName string, scale workload.Scale, runOpts ...sim.RunOption) ([]ExtensionRow, error) {
	w, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", workloadName)
	}
	prog := w.Build(scale)

	type config struct {
		label string
		cfg   sim.Config
	}
	// Every registry scheme ±AP (the baseline, which defends nothing, -AP
	// only), then the DoM core-config variants.
	var cfgs []config
	for _, s := range secure.AllSchemes() {
		cfgs = append(cfgs, config{s.String(), sim.Config{Scheme: s}})
		if s.Info().Threat != 0 {
			cfgs = append(cfgs, config{s.String() + "+AP", sim.Config{Scheme: s, AddressPrediction: true}})
		}
	}
	vp, hybrid := sim.DefaultCoreConfig(), sim.DefaultCoreConfig()
	vp.ValuePrediction = true
	hybrid.AddressPredictorKind = pipeline.PredictorHybrid
	cfgs = append(cfgs,
		config{"dom+VP", sim.Config{Scheme: secure.DoM, Core: &vp}},
		config{"dom+AP-hybrid", sim.Config{Scheme: secure.DoM, AddressPrediction: true, Core: &hybrid}})
	rows := make([]ExtensionRow, 0, len(cfgs))
	for _, c := range cfgs {
		res, err := sim.RunContext(context.Background(), prog, c.cfg, runOpts...)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExtensionRow{Label: c.label, Result: res})
	}
	return rows, nil
}

// PrintExtensions renders the extensions appendix.
func PrintExtensions(w io.Writer, workloadName string, rows []ExtensionRow) {
	fmt.Fprintf(w, "Extensions appendix (beyond the paper), workload %q\n", workloadName)
	fmt.Fprintf(w, "  %-16s %10s %8s %10s\n", "configuration", "cycles", "IPC", "vs base")
	var base uint64
	for _, r := range rows {
		if base == 0 {
			base = r.Result.Cycles
		}
		fmt.Fprintf(w, "  %-16s %10d %8.2f %9.1f%%\n",
			r.Label, r.Result.Cycles, r.Result.IPC,
			float64(base)/float64(r.Result.Cycles)*100)
	}
}
