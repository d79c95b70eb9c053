package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"doppelganger/internal/workload"
)

// sizes is how much work a run does. Everything scales with -seconds so
// that one run takes about that long on a 2-core host; the parent and a
// change run identical work at the same -seconds. The batch workloads split
// their work over several fresh processes ("parts"); where the parts do
// like work the run reports medians across them, so a slow spell of the
// host moves one part, not the run.
type sizes struct {
	scale   workload.Scale // figures-cold: kernel scale
	groups  [][]string     // figures-cold: the kernels of each part
	shape   bool           // figures-cold: the parts cover the suite the paper's claims are checked on
	parts   int            // processes the measured work is split across
	seeds   int            // leakcheck-sweep: gadget seeds per config, per part
	chunk   int            // leakcheck-sweep: seeds per Sweep call
	budget  int            // campaign: evaluations per part (one resumed session)
	rate    float64        // serve-mix: open-loop requests per second
	openS   float64        // serve-mix: open-loop phase length
	closedS float64        // serve-mix: closed-loop capacity phase length
	probeN  int            // serial calls per sub-layer probe
	setups  int            // set-up samples per run
}

func sizesFor(o options) sizes {
	if o.smoke {
		return sizes{scale: workload.ScaleTest, groups: [][]string{{"compress", "md_particles"}}, parts: 1,
			seeds: 4, chunk: 4, budget: 8, rate: 5, openS: 3, closedS: 1, probeN: 16, setups: 2}
	}
	s := float64(o.seconds)
	parts := func(perSecond float64) int { return max(1, int(math.Round(perSecond*s))) }
	sz := sizes{
		scale: workload.ScaleFull, groups: figuresGroups,
		seeds: 64, chunk: 32, budget: 64,
		// A quarter of doppeld's capacity on the mix, so that the host's
		// slow spells do not push the open loop into queueing.
		rate: 12.5, openS: 0.5 * s, closedS: 0.5 * s,
		probeN: 256, setups: 5,
	}
	switch o.workload {
	case "figures-cold":
		sz.parts = min(len(sz.groups), parts(1.0/5)) // a group takes 5-6 s
		sz.shape = sz.parts == len(sz.groups)
	case "leakcheck-sweep", "campaign":
		sz.parts = parts(1.0 / 5) // 64 seeds or evaluations take about 5 s
	default:
		sz.parts = 1
	}
	return sz
}

// childReport is the last stdout line of a process under test.
type childReport struct {
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Failures []string           `json:"failures,omitempty"`
	Digests  []string           `json:"digests"` // one per part done
	OpMS     []float64          `json:"op_ms"`   // per-op latency samples
	WorkS    float64            `json:"work_s"`  // wall time of the measured work
	Layer    map[string]float64 `json:"layer,omitempty"`
	Cells    []matrixCell       `json:"cells,omitempty"` // figures-cold: the part's matrix
}

func (r *childReport) fail(ops int, format string, args ...any) {
	r.Failed += ops
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// childRun is one finished process under test.
type childRun struct {
	setupS   float64
	rep      childReport
	cpu      time.Duration
	maxRSSMB float64
}

// childTimeout bounds one process under test, well inside a run's limit.
const childTimeout = 150 * time.Second

// spawnChild runs the workload's process under test: this binary with
// -child, two OS threads' worth of Go processors, and its own scratch
// directory. Set-up time runs from just before the exec to the child's
// "ready" line.
func spawnChild(o options, workDir string, part int, setupOnly bool, stderr io.Writer) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-child", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(btoi(o.trace)),
		"-spans", o.spansDir, "-work", workDir, "-part", strconv.Itoa(part)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var setup time.Duration
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if line := sc.Text(); line == "ready" && setup == 0 {
			setup = time.Since(start)
		} else {
			last = line
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("%s process: %w", o.workload, err)
	}
	if scanErr != nil {
		return childRun{}, scanErr
	}
	if setup == 0 {
		return childRun{}, fmt.Errorf("%s process never reported ready", o.workload)
	}
	cr := childRun{setupS: setup.Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		cr.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if setupOnly {
		return cr, nil
	}
	if last == "" {
		return childRun{}, fmt.Errorf("%s process exited without a report", o.workload)
	}
	if err := json.Unmarshal([]byte(last), &cr.rep); err != nil {
		return childRun{}, fmt.Errorf("%s report: %w", o.workload, err)
	}
	return cr, nil
}

// runBatchWorkload runs figures-cold, leakcheck-sweep or campaign: one
// process per part (the traced pass does every part in one process), then
// set-up-only processes until there are enough set-up samples. The parts of
// leakcheck-sweep and campaign do like work, so their rates, CPU and memory
// are medians over the parts; the parts of figures-cold are different
// kernels, so its metrics are of the matrix they make up together.
func runBatchWorkload(o options, stderr io.Writer) (*outcome, error) {
	sz := sizesFor(o)
	out := newOutcome(o.trace)
	work, err := os.MkdirTemp(ensureDir(filepath.Join(o.buildDir, "work")), o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	parts := []int{-1}
	if !o.trace {
		parts = parts[:0]
		for p := 0; p < sz.parts; p++ {
			parts = append(parts, p)
		}
	}
	var setups, rates, cpuPerOp, rss, opMS []float64
	var digests []string
	var cells []matrixCell
	var ops int
	var workS float64
	var cpu time.Duration
	for _, p := range parts {
		cr, err := spawnChild(o, work, p, false, stderr)
		if err != nil {
			return nil, err
		}
		r := cr.rep
		if r.Ops == 0 || r.WorkS == 0 {
			return nil, fmt.Errorf("part %d measured no work", p)
		}
		fmt.Fprintf(stderr, "bench: %s part %d: %d ops in %.3f s, %.2f ms CPU per op, %.1f MB peak\n",
			o.workload, p, r.Ops, r.WorkS, cr.cpu.Seconds()*1000/float64(r.Ops), cr.maxRSSMB)
		setups = append(setups, cr.setupS)
		rates = append(rates, float64(r.Ops)/r.WorkS)
		cpuPerOp = append(cpuPerOp, cr.cpu.Seconds()*1000/float64(r.Ops))
		rss = append(rss, cr.maxRSSMB)
		opMS = append(opMS, r.OpMS...)
		digests = append(digests, r.Digests...)
		cells = append(cells, r.Cells...)
		ops, workS, cpu = ops+r.Ops, workS+r.WorkS, cpu+cr.cpu
		out.attempted += r.Ops
		out.failed += r.Failed
		out.failures = append(out.failures, r.Failures...)
		for k, v := range r.Layer {
			if _, ok := out.metrics[k]; !ok {
				return nil, fmt.Errorf("child reported unknown metric %q", k)
			}
			out.metrics[k] = v
		}
	}
	for !o.trace && len(setups) < sz.setups {
		cr, err := spawnChild(o, work, 0, true, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cr.setupS)
	}
	out.digest = combineDigests(digests)
	if o.workload == "figures-cold" {
		checkShape(out, sz, cells)
	}
	if o.trace {
		return out, nil
	}
	out.metrics["setup_s"] = median(setups)
	if o.workload == "figures-cold" {
		// The matrix: its cells per second and its wall time, as if its
		// parts ran back to back; the largest part's memory.
		out.metrics["throughput"] = float64(ops) / workS
		out.metrics["latency_ms"] = sum(opMS)
		out.metrics["cpu_ms_per_op"] = cpu.Seconds() * 1000 / float64(ops)
		out.metrics["peak_rss_mb"] = slices.Max(rss)
		return out, nil
	}
	out.metrics["throughput"] = median(rates)
	out.metrics["latency_ms"] = median(opMS)
	out.metrics["cpu_ms_per_op"] = median(cpuPerOp)
	out.metrics["peak_rss_mb"] = median(rss)
	return out, nil
}

// runChild is the body of a process under test: set up, say "ready", do
// the measured work unless -setup-only, and print the report.
func runChild(o options, stdout, stderr io.Writer) error {
	ready := func() { fmt.Fprintln(stdout, "ready") }
	o.workload = o.child
	var rep *childReport
	var err error
	switch o.child {
	case "figures-cold":
		rep, err = figuresChild(o, ready, stderr)
	case "leakcheck-sweep":
		rep, err = sweepChild(o, ready, stderr)
	case "campaign":
		rep, err = campaignChild(o, ready, stderr)
	default:
		return fmt.Errorf("no process under test for %q", o.child)
	}
	if err != nil || rep == nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// ensureDir creates dir if needed and returns it; a failure surfaces at
// the first use of the directory.
func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
