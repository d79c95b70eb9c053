// Command figures runs the full experiment matrix and regenerates every
// table and figure of the paper's evaluation:
//
//	figures               # everything, full scale
//	figures -scale test   # quick (small workload instances)
//	figures -only fig6    # a single artifact: table1, fig1, fig6, fig7, fig8, baselineap
//	figures -workloads stream,pointer_chase
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"doppelganger/internal/harness"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

func main() {
	scale := flag.String("scale", "full", "workload scale: full or test")
	only := flag.String("only", "", "render one artifact: table1, fig1, fig6, fig7, fig8, baselineap, extensions")
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
	var runOpts []sim.RunOption
	if met != nil {
		runOpts = append(runOpts, sim.WithMetrics(met))
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
	if len(*only) > 12 && (*only)[:12] == "sensitivity-" {
		name := "stream"
		if *names != "" {
			name = strings.Split(*names, ",")[0]
		}
		axis := (*only)[12:]
		points, err := harness.RunSensitivity(axis, name, sc, runOpts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		harness.PrintSensitivity(os.Stdout, axis, name, points)
		writeMetrics()
		return
	}
	if *only == "extensions" {
		name := "stream"
		if *names != "" {
			name = strings.Split(*names, ",")[0]
		}
		rows, err := harness.RunExtensions(name, sc, runOpts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		harness.PrintExtensions(os.Stdout, name, rows)
		writeMetrics()
		return
	}

	opts := harness.Options{Scale: sc, Verify: *verify, Parallelism: *parallel, Metrics: met, WarmupInsts: *warmup}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *names != "" {
		opts.Workloads = strings.Split(*names, ",")
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

	artifacts := []struct {
		name  string
		print func()
	}{
		{"table1", func() { harness.PrintTable1(os.Stdout) }},
		{"fig1", func() { harness.PrintFigure1(os.Stdout, m) }},
		{"fig6", func() { harness.PrintFigure6(os.Stdout, m) }},
		{"fig7", func() { harness.PrintFigure7(os.Stdout, m) }},
		{"fig8", func() { harness.PrintFigure8(os.Stdout, m) }},
		{"baselineap", func() { harness.PrintBaselineAP(os.Stdout, m) }},
	}
	found := false
	for _, a := range artifacts {
		if *only == "" || *only == a.name {
			a.print()
			fmt.Println()
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q\n", *only)
		os.Exit(2)
	}
}
