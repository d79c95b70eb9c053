// Command doppelsim runs one program on the simulated core and reports
// detailed statistics.
//
//	doppelsim -workload stream -scheme dom -ap            # suite benchmark
//	doppelsim -file prog.asm -scheme stt                  # assembly file
//	doppelsim -workload pointer_chase -all                # all schemes +-AP
//	doppelsim -workload stream -all -parallel 8           # comparison on 8 workers
//	doppelsim -workload stream -scheme dom -json          # machine-readable result
//	doppelsim -list                                       # show workloads
//	doppelsim -workload stream -trace 1000:1200           # JSONL events for a cycle window
//	doppelsim -workload stream -trace all -trace-out t.jsonl
//	doppelsim -workload stream -scheme dom -metrics -     # Prometheus text on stdout
//	doppelsim -workload stream -warmup-insts 100000 -checkpoint-out warm.ckpt
//	doppelsim -checkpoint-in warm.ckpt -scheme stt -ap    # fork the warm state
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"doppelganger/internal/engine"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run a suite workload by name (see -list)")
		file         = flag.String("file", "", "run an assembly file")
		schemeName   = flag.String("scheme", "unsafe", "secure speculation scheme: "+strings.Join(schemeNames(), ", "))
		ap           = flag.Bool("ap", false, "enable doppelganger loads (address prediction)")
		vp           = flag.Bool("vp", false, "enable DoM value prediction instead of doppelgangers")
		apKind       = flag.String("predictor", "stride", "address predictor: stride, context, hybrid")
		bpKind       = flag.String("branch", "bimodal", "branch predictor: bimodal, gshare")
		all          = flag.Bool("all", false, "run every scheme with and without AP and compare")
		extensions   = flag.Bool("extensions", false, "with -all, include the nda-s and stt-spectre variants")
		scaleName    = flag.String("scale", "full", "workload scale: full or test")
		maxInsts     = flag.Uint64("maxinsts", 0, "stop after committing this many instructions (0 = run to halt)")
		maxCycles    = flag.Uint64("maxcycles", 0, "cycle budget (0 = default)")
		trace        = flag.String("trace", "", "emit JSONL trace events: a cycle window as from:to, or \"all\"")
		traceOut     = flag.String("trace-out", "-", "trace destination file (\"-\" = stdout)")
		metricsOut   = flag.String("metrics", "", "write run metrics in Prometheus text format to this file (\"-\" = stdout)")
		verify       = flag.Bool("verify", false, "cross-check the final state against the reference interpreter")
		list         = flag.Bool("list", false, "list suite workloads and exit")
		parallel     = flag.Int("parallel", 0, "with -all, engine worker-pool size (0 = one per CPU)")
		jsonOut      = flag.Bool("json", false, "emit results as JSON")
		ckptOut      = flag.String("checkpoint-out", "", "warm up, then write a checkpoint file and exit (requires -warmup-insts)")
		ckptIn       = flag.String("checkpoint-in", "", "warm-start from a checkpoint file instead of the program's initial state")
		warmupInsts  = flag.Uint64("warmup-insts", 0, "with -checkpoint-out, commit this many instructions before snapshotting")
	)
	flag.Parse()

	if *list {
		for _, w := range sim.Workloads() {
			fmt.Printf("%-16s stands in for %s\n    %s\n", w.Name, w.Spec, w.Description)
		}
		return
	}

	// Validate every flag before doing any work, so a typo'd or
	// contradictory invocation fails loudly instead of silently running
	// something other than what was asked for (-all used to ignore -vp,
	// -predictor and -branch entirely).
	if *ap && *vp {
		fail(fmt.Errorf("-ap and -vp are mutually exclusive: doppelganger loads and DoM value prediction replace each other"))
	}
	if *all && *vp {
		fail(fmt.Errorf("-vp cannot be combined with -all: the comparison table contrasts doppelganger loads, not value prediction; run -scheme dom -vp instead"))
	}
	if err := validateCheckpointFlags(*ckptOut, *ckptIn, *warmupInsts, *all, *trace, *metricsOut, *verify); err != nil {
		fail(err)
	}
	scheme, err := sim.ParseScheme(*schemeName)
	if err != nil {
		fail(fmt.Errorf("unknown scheme %q: valid schemes are %s", *schemeName, strings.Join(schemeNames(), ", ")))
	}
	cc, err := buildCoreConfig(*vp, *apKind, *bpKind)
	if err != nil {
		fail(err)
	}

	// With -checkpoint-in the program is optional: the checkpoint embeds
	// the one it was taken of, and naming a program here only adds a
	// compatibility cross-check.
	var prog *sim.Program
	if *ckptIn == "" || *workloadName != "" || *file != "" {
		prog, err = loadProgram(*workloadName, *file, *scaleName)
		if err != nil {
			fail(err)
		}
	}

	if *all {
		runAll(prog, &cc, *maxInsts, *maxCycles, *extensions, *parallel, *jsonOut)
		return
	}

	cfg := sim.Config{
		Scheme:            scheme,
		AddressPrediction: *ap,
		MaxInsts:          *maxInsts,
		MaxCycles:         *maxCycles,
		Core:              &cc,
	}

	if *ckptOut != "" {
		ck, err := sim.Snapshot(prog, cfg, *warmupInsts)
		if err != nil {
			fail(err)
		}
		if err := ck.WriteFile(*ckptOut); err != nil {
			fail(err)
		}
		st := ck.State()
		fmt.Printf("checkpoint written  %s\n", *ckptOut)
		fmt.Printf("program             %s\n", prog.Name)
		fmt.Printf("warmed under        %v (doppelganger loads: %v)\n", cfg.Scheme, cfg.AddressPrediction)
		fmt.Printf("committed / cycle   %d insts / %d\n", st.Stats.Committed, st.Cycle)
		fmt.Printf("digest              %s\n", ck.Digest())
		return
	}

	var opts []sim.RunOption
	if *trace != "" {
		w, closeTrace, err := openOut(*traceOut)
		if err != nil {
			fail(err)
		}
		defer closeTrace()
		opts = append(opts, sim.WithTracer(sim.NewJSONLSink(w)))
		if *trace != "all" {
			var from, to uint64
			if _, err := fmt.Sscanf(*trace, "%d:%d", &from, &to); err != nil {
				fail(fmt.Errorf("bad -trace %q, want from:to or \"all\"", *trace))
			}
			opts = append(opts, sim.WithTraceWindow(from, to))
		}
	}
	var met *sim.Metrics
	if *metricsOut != "" {
		met = sim.NewMetrics()
		opts = append(opts, sim.WithMetrics(met))
	}
	var res sim.Result
	if *ckptIn != "" {
		ck, err := sim.ReadCheckpoint(*ckptIn)
		if err != nil {
			fail(err)
		}
		res, err = sim.RunFromCheckpoint(context.Background(), prog, cfg, ck, opts...)
		if err != nil {
			fail(err)
		}
	} else {
		res, err = sim.RunContext(context.Background(), prog, cfg, opts...)
		if err != nil {
			fail(err)
		}
	}
	if met != nil {
		w, closeMetrics, err := openOut(*metricsOut)
		if err != nil {
			fail(err)
		}
		if err := met.WritePrometheus(w); err != nil {
			fail(err)
		}
		closeMetrics()
	}
	if *verify {
		ref := sim.Interpret(prog, 500_000_000)
		if res.Checksum != ref.Checksum() {
			fail(fmt.Errorf("verification FAILED: core state differs from the reference interpreter"))
		}
		fmt.Println("verification OK: architectural state matches the reference interpreter")
	}
	if *jsonOut {
		printJSON(struct {
			Scheme string     `json:"scheme"`
			AP     bool       `json:"ap"`
			Result sim.Result `json:"result"`
		}{cfg.Scheme.String(), cfg.AddressPrediction, res})
		return
	}
	printResult(res)
}

// validateCheckpointFlags rejects contradictory checkpoint invocations up
// front, so a bad combination fails with a usage message instead of
// silently running something other than what was asked for.
func validateCheckpointFlags(ckptOut, ckptIn string, warmupInsts uint64, all bool, trace, metricsOut string, verify bool) error {
	if ckptOut != "" && ckptIn != "" {
		return fmt.Errorf("-checkpoint-out and -checkpoint-in are mutually exclusive: one run either takes a snapshot or restores one")
	}
	if ckptOut != "" {
		if warmupInsts == 0 {
			return fmt.Errorf("-checkpoint-out requires -warmup-insts: say how far to warm before snapshotting")
		}
		if all || trace != "" || metricsOut != "" || verify {
			return fmt.Errorf("-checkpoint-out runs only the warmup and cannot be combined with -all, -trace, -metrics or -verify; take the snapshot first, then run from it with -checkpoint-in")
		}
	}
	if warmupInsts > 0 && ckptOut == "" {
		return fmt.Errorf("-warmup-insts only configures -checkpoint-out; to bound a normal run use -maxinsts")
	}
	if ckptIn != "" {
		if all {
			return fmt.Errorf("-checkpoint-in cannot be combined with -all yet; run each scheme separately from the same checkpoint")
		}
		if verify {
			return fmt.Errorf("-checkpoint-in cannot be combined with -verify: the reference interpreter replays the program's initial state, which the checkpoint supersedes")
		}
	}
	return nil
}

// buildCoreConfig assembles the core configuration from the predictor
// flags, rejecting unknown names with the valid choices spelled out.
func buildCoreConfig(vp bool, apKind, bpKind string) (sim.CoreConfig, error) {
	cc := sim.DefaultCoreConfig()
	cc.ValuePrediction = vp
	switch apKind {
	case "stride":
		cc.AddressPredictorKind = sim.PredictorStride
	case "context":
		cc.AddressPredictorKind = sim.PredictorContext
	case "hybrid":
		cc.AddressPredictorKind = sim.PredictorHybrid
	default:
		return cc, fmt.Errorf("unknown predictor %q: valid predictors are stride, context, hybrid", apKind)
	}
	switch bpKind {
	case "bimodal":
		cc.BranchPredictorKind = sim.BranchBimodal
	case "gshare":
		cc.BranchPredictorKind = sim.BranchGShare
	default:
		return cc, fmt.Errorf("unknown branch predictor %q: valid branch predictors are bimodal, gshare", bpKind)
	}
	return cc, nil
}

// schemeNames lists every accepted -scheme value, extensions included.
func schemeNames() []string { return secure.Names(sim.AllSchemes()) }

// openOut resolves an output destination: "-" is stdout (with a no-op
// closer), anything else is created as a file.
func openOut(path string) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// printJSON writes any value as indented JSON on stdout.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func loadProgram(workloadName, file, scaleName string) (*sim.Program, error) {
	switch {
	case workloadName != "" && file != "":
		return nil, fmt.Errorf("use either -workload or -file, not both")
	case workloadName != "":
		scale, err := workload.ParseScale(scaleName)
		if err != nil {
			return nil, err
		}
		return workload.Program(workloadName, scale)
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return sim.Assemble(file, string(src))
	default:
		return nil, fmt.Errorf("nothing to run: pass -workload or -file (or -list)")
	}
}

// runAll compares every scheme with and without address prediction. The
// cells execute concurrently on an engine worker pool; the comparison table
// streams in scheme order regardless of completion order (the engine's
// batch callbacks are ordered), so output is identical at any parallelism.
func runAll(prog *sim.Program, cc *sim.CoreConfig, maxInsts, maxCycles uint64, extensions bool, parallel int, jsonOut bool) {
	schemes := sim.Schemes()
	if extensions {
		schemes = sim.AllSchemes()
	}
	var jobs []engine.Job
	for _, scheme := range schemes {
		for _, ap := range []bool{false, true} {
			jobs = append(jobs, engine.Job{Program: prog, Config: sim.Config{
				Scheme: scheme, AddressPrediction: ap,
				MaxInsts: maxInsts, MaxCycles: maxCycles,
				Core: cc, // shared read-only; NewCore copies it per run
			}})
		}
	}
	eng := engine.New(engine.Options{Workers: parallel})
	defer eng.Close()

	if jsonOut {
		results, err := eng.RunBatch(context.Background(), jobs, nil)
		if err != nil {
			fail(err)
		}
		type cell struct {
			Scheme string     `json:"scheme"`
			AP     bool       `json:"ap"`
			Result sim.Result `json:"result"`
		}
		cells := make([]cell, len(results))
		for i, res := range results {
			cells[i] = cell{jobs[i].Config.Scheme.String(), jobs[i].Config.AddressPrediction, res}
		}
		printJSON(cells)
		return
	}

	fmt.Printf("%-12s %-6s %12s %8s %10s %10s %10s\n",
		"scheme", "dopp", "cycles", "IPC", "vs base", "coverage", "accuracy")
	var base uint64
	_, err := eng.RunBatch(context.Background(), jobs, func(i int, res sim.Result, err error) {
		if err != nil {
			return
		}
		cfg := jobs[i].Config
		if cfg.Scheme == sim.Unsafe && !cfg.AddressPrediction {
			base = res.Cycles
		}
		fmt.Printf("%-12v %-6v %12d %8.2f %9.1f%% %9.1f%% %9.1f%%\n",
			cfg.Scheme, cfg.AddressPrediction, res.Cycles, res.IPC,
			float64(base)/float64(res.Cycles)*100,
			res.Coverage*100, res.Accuracy*100)
	})
	if err != nil {
		fail(err)
	}
}

func printResult(res sim.Result) {
	st := res.Stats
	m := res.Memory
	fmt.Printf("program            %s\n", res.Program)
	fmt.Printf("scheme             %v (doppelganger loads: %v)\n", res.Scheme, res.AP)
	fmt.Printf("cycles             %d\n", res.Cycles)
	fmt.Printf("instructions       %d (IPC %.3f)\n", res.Insts, res.IPC)
	fmt.Printf("loads / stores     %d / %d\n", st.CommittedLoads, st.CommittedStores)
	fmt.Printf("load levels        L1=%d L2=%d L3=%d mem=%d\n",
		st.CommittedLoadLevel[0], st.CommittedLoadLevel[1], st.CommittedLoadLevel[2], st.CommittedLoadLevel[3])
	fmt.Printf("branches           %d committed, %d mispredicted (%.2f%%)\n",
		st.CommittedBranches, st.BranchMispredicts, st.BranchMispredictRate()*100)
	fmt.Printf("squashed uops      %d (%d memory-order violations)\n", st.Squashed, st.MemOrderViolations)
	fmt.Printf("store forwards     %d\n", st.STLFForwards)
	fmt.Printf("prefetches         %d issued\n", st.PrefetchesIssued)
	if res.Scheme.DelaysOnMiss() {
		fmt.Printf("DoM delayed misses %d\n", st.DoMDelayedMisses)
	}
	if res.Scheme.TracksTaint() {
		fmt.Printf("STT taint stalls   %d\n", st.STTTaintStalls)
	}
	if res.AP {
		fmt.Printf("doppelgangers      %d predicted, %d issued, %d verified, %d mispredicted\n",
			st.DoppPredictions, st.DoppIssued, st.DoppVerified, st.DoppMispredicted)
		fmt.Printf("coverage/accuracy  %.1f%% / %.1f%%\n", res.Coverage*100, res.Accuracy*100)
	}
	if st.VPPredictions > 0 {
		fmt.Printf("value predictions  %d made, %d correct, %d squashed\n",
			st.VPPredictions, st.VPCorrect, st.VPMispredicted)
	}
	fmt.Printf("L1 accesses        %d (demand %d, doppelganger %d, prefetch %d, writeback %d), %d misses\n",
		m.L1Accesses, m.L1Demand, m.L1Doppelganger, m.L1Prefetch, m.L1Writeback, m.L1Misses)
	fmt.Printf("L2 / L3 accesses   %d / %d\n", m.L2Accesses, m.L3Accesses)
	fmt.Printf("DRAM accesses      %d reads, %d writebacks\n", m.DRAMAccesses, m.DRAMWrites)
	fmt.Printf("dirty evictions    L1=%d L2=%d L3=%d\n", m.WritebacksL1, m.WritebacksL2, m.WritebacksL3)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "doppelsim:", err)
	os.Exit(1)
}
