package harness

import (
	"fmt"
	"io"

	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// PrintTable1 renders the system configuration (Table 1 of the paper).
func PrintTable1(w io.Writer) {
	cfg := sim.DefaultCoreConfig()
	fmt.Fprintln(w, "Table 1: System Configuration")
	fmt.Fprintln(w, "Processor")
	fmt.Fprintf(w, "  %-28s %d instructions\n", "Decode width", cfg.DecodeWidth)
	fmt.Fprintf(w, "  %-28s %d instructions\n", "Issue / Commit width", cfg.IssueWidth)
	fmt.Fprintf(w, "  %-28s %d entries\n", "Instruction queue", cfg.IQSize)
	fmt.Fprintf(w, "  %-28s %d entries\n", "Reorder buffer", cfg.ROBSize)
	fmt.Fprintf(w, "  %-28s %d entries\n", "Load queue", cfg.LQSize)
	fmt.Fprintf(w, "  %-28s %d entries\n", "Store queue/buffer", cfg.SQSize)
	fmt.Fprintf(w, "  %-28s %d entries, %d-way\n", "Address predictor/prefetcher",
		cfg.Stride.Entries, cfg.Stride.Ways)
	fmt.Fprintln(w, "Memory")
	fmt.Fprintf(w, "  %-28s %dKiB, %d ways, %d cycles, %d MSHRs\n", "L1 D cache",
		cfg.Memory.L1D.SizeBytes>>10, cfg.Memory.L1D.Ways, cfg.Memory.L1D.Latency, cfg.Memory.L1MSHRs)
	fmt.Fprintf(w, "  %-28s %dMiB, %d ways, %d cycles\n", "Private L2 cache",
		cfg.Memory.L2.SizeBytes>>20, cfg.Memory.L2.Ways, cfg.Memory.L2.Latency)
	fmt.Fprintf(w, "  %-28s %dMiB, %d ways, %d cycles\n", "Shared L3 cache",
		cfg.Memory.L3.SizeBytes>>20, cfg.Memory.L3.Ways, cfg.Memory.L3.Latency)
	fmt.Fprintf(w, "  %-28s %d cycles beyond L3 (13.5 ns at 4 GHz)\n", "Memory access time",
		cfg.Memory.MemLatency)
}

// PrintFigure1 renders the headline summary: geomean normalized performance
// per scheme with and without doppelganger loads, and the slowdown each
// recovers.
func PrintFigure1(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 1: Geomean performance normalized to the unsafe baseline")
	fmt.Fprintf(w, "  %-8s %10s %10s %22s\n", "scheme", "base", "+AP", "slowdown reduction")
	for _, s := range Schemes {
		base := m.GeomeanNormIPC(s, false)
		ap := m.GeomeanNormIPC(s, true)
		fmt.Fprintf(w, "  %-8v %9.1f%% %9.1f%% %21.1f%%   (AP-fair: %.1f%%)\n",
			s, base*100, ap*100, m.SlowdownReduction(s)*100, m.GeomeanNormIPCAPFair(s)*100)
	}
	fmt.Fprintf(w, "  paper:   nda-p 88.7%% -> 93.5%% (42.0%%), stt 90.5%% -> 95.1%% (48.2%%), dom 81.8%% -> 87.3%% (30.3%%)\n")
}

// schemeRow renders one row of Figures 6 and 8: the label, then one
// "base +AP" pair per evaluated scheme, pipe-separated.
func schemeRow(w io.Writer, label string, pair func(secure.Scheme) string) {
	fmt.Fprintf(w, "  %-16s", label)
	for i, s := range Schemes {
		if i > 0 {
			fmt.Fprint(w, " |")
		}
		fmt.Fprint(w, pair(s))
	}
	fmt.Fprintln(w)
}

// schemeHeader is the column header row of Figures 6 and 8.
func schemeHeader(w io.Writer) {
	schemeRow(w, "workload", func(s secure.Scheme) string { return fmt.Sprintf(" %7s %7s", s, "+AP") })
}

// PrintFigure6 renders per-workload normalized IPC for every evaluated
// scheme with and without address prediction.
func PrintFigure6(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 6: Normalized IPC to baseline (per workload)")
	schemeHeader(w)
	for _, name := range m.Workloads {
		schemeRow(w, name, func(s secure.Scheme) string {
			return fmt.Sprintf(" %6.1f%% %6.1f%%", m.NormIPC(name, s, false)*100, m.NormIPC(name, s, true)*100)
		})
	}
	schemeRow(w, "GMEAN", func(s secure.Scheme) string {
		return fmt.Sprintf(" %6.1f%% %6.1f%%", m.GeomeanNormIPC(s, false)*100, m.GeomeanNormIPC(s, true)*100)
	})
}

// PrintFigure7 renders address-predictor coverage and accuracy per workload
// under DoM+AP (representative for all schemes, as in the paper).
func PrintFigure7(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 7: Address prediction coverage and accuracy (DoM+AP)")
	fmt.Fprintf(w, "  %-16s %9s %9s\n", "workload", "coverage", "accuracy")
	var cov, acc []float64
	for _, name := range m.Workloads {
		r := m.Get(name, secure.DoM, true)
		fmt.Fprintf(w, "  %-16s %8.1f%% %8.1f%%\n", name, r.Coverage*100, r.Accuracy*100)
		cov = append(cov, r.Coverage)
		acc = append(acc, r.Accuracy)
	}
	fmt.Fprintf(w, "  %-16s %8.1f%% %8.1f%%\n", "GMEAN", Geomean(cov)*100, Geomean(acc)*100)
}

// PrintFigure8 renders L1 and L2 access counts normalized to the unsafe
// baseline for each scheme with and without AP.
func PrintFigure8(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 8: Cache accesses normalized to baseline")
	for _, level := range []struct {
		name string
		norm func(string, secure.Scheme, bool) float64
	}{{"L1", m.NormL1}, {"L2", m.NormL2}} {
		fmt.Fprintf(w, "  [%s accesses]\n", level.name)
		schemeHeader(w)
		for _, name := range m.Workloads {
			schemeRow(w, name, func(s secure.Scheme) string {
				return fmt.Sprintf("  %6.2f  %6.2f", level.norm(name, s, false), level.norm(name, s, true))
			})
		}
	}
}

// PrintBaselineAP renders the unsafe-baseline-with-AP comparison discussed
// in §7 (the paper measures a ~0.5% geomean gain).
func PrintBaselineAP(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Unsafe baseline + address prediction (§7)")
	vals := make([]float64, 0, len(m.Workloads))
	for _, name := range m.Workloads {
		v := m.NormIPC(name, secure.Unsafe, true)
		fmt.Fprintf(w, "  %-16s %6.1f%%\n", name, v*100)
		vals = append(vals, v)
	}
	fmt.Fprintf(w, "  %-16s %6.1f%%  (paper: +0.5%%)\n", "GMEAN", Geomean(vals)*100)
}
