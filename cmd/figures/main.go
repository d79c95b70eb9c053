// Command figures runs the full experiment matrix and regenerates every
// table and figure of the paper's evaluation:
//
//	figures               # everything, full scale
//	figures -scale test   # quick (small workload instances)
//	figures -only fig6    # a single artifact: table1, fig1, fig6, fig7, fig8, baselineap
//	figures -workloads stream,pointer_chase
//	figures -only extensions    # also sensitivity-{rob,mshrs,predictor,ports,prefetch};
//	                            # these run on the first of -workloads (default stream)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"doppelganger/internal/harness"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

func main() {
	scale := flag.String("scale", "full", "workload scale: full or test")
	only := flag.String("only", "", "render one artifact: table1, fig1, fig6, fig7, fig8, baselineap, extensions, sensitivity-<axis>")
	names := flag.String("workloads", "", "comma-separated workload subset (default all)")
	verify := flag.Bool("verify", true, "cross-check architectural state against the reference interpreter")
	quiet := flag.Bool("quiet", false, "suppress per-run progress lines")
	parallel := flag.Int("parallel", 0, "engine worker-pool size for the sweep (0 = one per CPU)")
	csvPath := flag.String("csv", "", "also export the full matrix as CSV to this file")
	metricsPath := flag.String("metrics", "", "export sweep metrics in Prometheus text format to this file (\"-\" = stdout)")
	check := flag.Bool("check", false, "run the qualitative shape checks and exit non-zero on failure")
	warmup := flag.Uint64("warmup", 0, "warm-start: snapshot each workload once after N committed instructions and fork every scheme cell from it (0 = cold)")
	flag.Parse()

	var met *sim.Metrics
	if *metricsPath != "" {
		met = sim.NewMetrics()
	}
	writeMetrics := func() {
		if met == nil {
			return
		}
		out := os.Stdout
		if *metricsPath != "-" {
			f, err := os.Create(*metricsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := met.WritePrometheus(out); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
	}
	if *only == "table1" {
		harness.PrintTable1(os.Stdout)
		return
	}
	sc, err := workload.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	opts := harness.Options{Scale: sc, Verify: *verify, Parallelism: *parallel, Metrics: met, WarmupInsts: *warmup}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *names != "" {
		opts.Workloads = strings.Split(*names, ",")
	}
	if i := slices.IndexFunc(harness.Experiments, func(e harness.Experiment) bool { return e.Name == *only }); i >= 0 {
		e := harness.Experiments[i]
		name := "stream"
		if len(opts.Workloads) > 0 {
			name = opts.Workloads[0]
		}
		rows, err := e.Run(name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		failures := 0
		if *check {
			failures = harness.PrintShapeChecks(os.Stdout, e.Check(name, rows))
		} else {
			e.Print(os.Stdout, name, rows)
		}
		writeMetrics()
		if failures > 0 {
			os.Exit(1)
		}
		return
	}
	artifacts := []struct {
		name  string
		print func(*harness.Matrix)
	}{
		{"table1", func(*harness.Matrix) { harness.PrintTable1(os.Stdout) }},
		{"fig1", func(m *harness.Matrix) { harness.PrintFigure1(os.Stdout, m) }},
		{"fig6", func(m *harness.Matrix) { harness.PrintFigure6(os.Stdout, m) }},
		{"fig7", func(m *harness.Matrix) { harness.PrintFigure7(os.Stdout, m) }},
		{"fig8", func(m *harness.Matrix) { harness.PrintFigure8(os.Stdout, m) }},
		{"baselineap", func(m *harness.Matrix) { harness.PrintBaselineAP(os.Stdout, m) }},
	}
	known := *only == ""
	for _, a := range artifacts {
		known = known || *only == a.name
	}
	if !known {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q\n", *only)
		os.Exit(2)
	}

	m, err := harness.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	writeMetrics()

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		if err := harness.WriteCSV(f, m); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *check {
		if failures := harness.PrintShapeChecks(os.Stdout, harness.CheckShape(m)); failures > 0 {
			os.Exit(1)
		}
		return
	}

	for _, a := range artifacts {
		if *only == "" || *only == a.name {
			a.print(m)
			fmt.Println()
		}
	}
}
