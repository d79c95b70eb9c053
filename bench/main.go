// Command bench is the repository's benchmark. It runs one of four
// workloads — the figures matrix, a leakcheck sweep, a leakage campaign and
// a doppeld request mix — against the modules' public functions, checks
// that their outputs are correct, and prints every metric by name with its
// unit. The last line of a run is one JSON object: correct, attempted,
// failed and metrics.
//
//	bash bench/run.sh --workload figures-cold --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                     # all four workloads
//	bash bench/run.sh --workload campaign --seed 1 --trace 1
//	bash bench/run.sh -compare parent.txt change.txt
//
// The untraced pass (--trace 0) prints the end-to-end metrics; the traced
// pass (--trace 1) prints the per-layer metrics and writes its spans to
// -spans. See bench/README.md for the workloads, the metrics and how to
// read the spans.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloads in the order a run without --workload executes them.
var workloads = []string{"figures-cold", "leakcheck-sweep", "campaign", "serve-mix"}

// options are one run's settings. The child fields are set only in the
// process under test that a run spawns.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	spansDir string
	buildDir string

	child     string // workload the child process runs
	part      int    // the part of the work the child does; -1 is all parts
	setupOnly bool   // the child exits once set up
	workDir   string // the child's scratch directory
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (empty = all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal run length; the amount of work scales with it")
	fs.IntVar(&traceN, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	fs.BoolVar(&o.smoke, "smoke", false, "toy sizes, for tests")
	fs.StringVar(&o.spansDir, "spans", ".bench_build/spans", "directory the traced pass writes <workload>.spans.jsonl to")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for the doppeld binary and scratch files")
	fs.BoolVar(&compare, "compare", false, "compare two files of recorded runs: -compare PARENT CHANGE")
	fs.StringVar(&o.child, "child", "", "internal: run a workload's process under test")
	fs.IntVar(&o.part, "part", -1, "internal: the part of the work to do (-1 = all)")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: exit after set-up")
	fs.StringVar(&o.workDir, "work", "", "internal: the child's scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceN == 1
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}

	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: PARENT CHANGE")
			return 2
		}
		if err := runCompare(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if o.child != "" {
		if err := runChild(o, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %s child: %v\n", o.child, err)
			return 1
		}
		return 0
	}

	names := workloads
	if o.workload != "" {
		if !slices.Contains(workloads, o.workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloads, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	status := 0
	for _, w := range names {
		o.workload = w
		ok, err := runWorkload(o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		if !ok {
			status = 1
		}
	}
	return status
}

// runWorkload runs one workload's pass in fresh processes and prints its
// metrics. It reports whether every correctness check passed.
func runWorkload(o options, stdout, stderr io.Writer) (bool, error) {
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%d trace=%d start_unix_ns=%d\n",
		o.workload, o.seed, o.seconds, btoi(o.trace), time.Now().UnixNano())
	var out *outcome
	var err error
	switch o.workload {
	case "figures-cold", "leakcheck-sweep", "campaign":
		out, err = runBatchWorkload(o, stderr)
	case "serve-mix":
		out, err = runServe(o, stderr)
	}
	if err != nil {
		return false, err
	}
	for _, c := range out.failures {
		fmt.Fprintf(stdout, "check FAILED: %s\n", c)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	correct := len(out.failures) == 0 && out.failed == 0
	if err := report(stdout, defs, out.metrics, out.digest, out.attempted, out.failed, correct); err != nil {
		return false, err
	}
	return correct, nil
}

// outcome is what a workload's pass measured and checked.
type outcome struct {
	metrics   map[string]float64
	digest    string
	attempted int
	failed    int
	failures  []string
}

// newOutcome starts an outcome with every metric of the pass at zero, so a
// layer the workload does not call reads 0.
func newOutcome(trace bool) *outcome {
	o := &outcome{metrics: make(map[string]float64)}
	if trace {
		for _, d := range perLayer {
			o.metrics[d.Name] = 0
		}
	}
	return o
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// workers is the parallelism of every process under test, engine workers
// and client connections alike: the 2 CPUs the benchmark is sized for.
const workers = 2

// parallel calls f(i) for every i in [0, n) on w goroutines, handing out
// indices in order, and returns when all calls have.
func parallel(n, w int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
