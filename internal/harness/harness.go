// Package harness runs the paper's experiment matrix — every workload under
// every scheme with and without address prediction — and renders the tables
// behind each figure of the evaluation (Figures 1, 6, 7, 8 and Table 1).
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"doppelganger/internal/engine"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// Schemes evaluated in figure order (the registry's Figures rows): the
// paper's three delay-based schemes, then the undo-based Cleanup.
var Schemes = secure.Select(func(i secure.Info) bool { return i.Figures })

// Key identifies one cell of the experiment matrix.
type Key struct {
	Workload string
	Scheme   secure.Scheme
	AP       bool
}

// Matrix holds the full set of results.
type Matrix struct {
	Workloads []string
	Results   map[Key]sim.Result
}

// Options configures a sweep.
type Options struct {
	// Scale selects workload sizes.
	Scale workload.Scale
	// Workloads restricts the sweep (nil = all).
	Workloads []string
	// Verify cross-checks every run's architectural state against the
	// reference interpreter.
	Verify bool
	// Progress, when non-nil, receives one line per completed run.
	// Lines are emitted from a single goroutine in matrix order
	// (workload, scheme, ±AP) regardless of parallelism, so the stream
	// is byte-identical to a serial sweep's.
	Progress io.Writer
	// Parallelism is the engine worker-pool size; <= 0 uses one worker
	// per available CPU. The matrix is deterministic at any setting:
	// every cell simulates an independent core, so parallel and serial
	// sweeps produce identical results.
	Parallelism int
	// Engine, when non-nil, executes the sweep (Parallelism is then
	// ignored). Reusing one engine across sweeps shares its result
	// cache, so repeated or overlapping matrices skip re-simulation.
	Engine *engine.Engine
	// Metrics, when non-nil, receives the sweep's simulator and engine
	// metrics. Applied only to engines this sweep creates; a caller
	// passing its own Engine attaches a registry at engine construction.
	Metrics *sim.Metrics
	// WarmupInsts, when positive, warm-starts the matrix: each workload is
	// simulated once under the unsafe baseline until this many instructions
	// commit, the complete µarch state is checkpointed, and every
	// scheme × AP cell forks from that checkpoint instead of replaying the
	// warmup. Architectural results (and Verify) are unaffected — the
	// checksum is scheme-invariant — and all cells of a workload share one
	// warmup, so relative comparisons stay self-consistent; absolute cycle
	// counts include the warmup drain and differ slightly from a cold
	// sweep's. Zero disables warm-starting (cold, bit-identical to
	// previous behaviour).
	WarmupInsts uint64
}

// Run executes the experiment matrix: each workload under the unsafe
// baseline and the three schemes, each with and without address prediction.
// Cells execute concurrently on the engine's worker pool; results, progress
// lines and errors are deterministic regardless of the worker count.
func Run(opts Options) (*Matrix, error) {
	names := opts.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	sort.Strings(names)
	m := &Matrix{Workloads: names, Results: make(map[Key]sim.Result)}
	schemes := append([]secure.Scheme{secure.Unsafe}, Schemes...)

	progs, refSums, ckpts, err := prepare(opts, names)
	if err != nil {
		return nil, err
	}

	// One job per cell, in matrix order. RunBatch's ordered callback then
	// replays completions in exactly this order.
	cells := make([]Key, 0, len(names)*len(schemes)*2)
	jobs := make([]batchJob, 0, cap(cells))
	for i, name := range names {
		for _, s := range schemes {
			for _, ap := range []bool{false, true} {
				cells = append(cells, Key{name, s, ap})
				jobs = append(jobs, batchJob{
					Job: engine.Job{
						Program:    progs[i],
						Config:     sim.Config{Scheme: s, AddressPrediction: ap},
						Checkpoint: ckpts[i],
					},
					ref:      refSums[i],
					what:     fmt.Sprintf("%s under %v ap=%v", name, s, ap),
					progress: fmt.Sprintf("%-16s %-7v ap=%-5v", name, s, ap),
				})
			}
		}
	}
	if err := runBatch(opts, jobs, func(i int, res sim.Result) { m.Results[cells[i]] = res }); err != nil {
		return nil, err
	}
	return m, nil
}

// prepare builds each workload's program and, when verifying or
// warm-starting, its reference checksum and warmup checkpoint — in
// parallel, since the interpreter and the warmup simulation both run
// serially per workload. Building is cheap and deterministic.
func prepare(opts Options, names []string) (progs []*sim.Program, refSums []uint64, ckpts []*sim.Checkpoint, err error) {
	progs = make([]*sim.Program, len(names))
	refSums = make([]uint64, len(names))
	refErrs := make([]error, len(names))
	ckpts = make([]*sim.Checkpoint, len(names))
	ckErrs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		progs[i] = w.Build(opts.Scale)
		if opts.Verify {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				ref := program.Run(progs[i], 100_000_000)
				if !ref.Halted {
					refErrs[i] = fmt.Errorf("harness: %s reference run did not halt", name)
					return
				}
				refSums[i] = ref.Checksum()
			}(i, name)
		}
		if opts.WarmupInsts > 0 {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				ck, err := sim.Snapshot(progs[i], sim.Config{}, opts.WarmupInsts)
				if err != nil {
					ckErrs[i] = fmt.Errorf("harness: warming %s: %w", name, err)
					return
				}
				ckpts[i] = ck
			}(i, name)
		}
	}
	wg.Wait()
	for _, err := range append(refErrs, ckErrs...) {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return progs, refSums, ckpts, nil
}

// batchJob is one run of a harness batch and how it names itself.
type batchJob struct {
	engine.Job
	ref      uint64 // reference checksum, compared when Options.Verify
	what     string // names the run in a divergence error
	progress string // leads the run's progress line
}

// runBatch runs jobs as one batch on opts.Engine (or a fresh engine) and
// hands each verified result to done, and to opts.Progress, in job order.
// The first engine or verification error stops the callbacks.
func runBatch(opts Options, jobs []batchJob, done func(i int, res sim.Result)) error {
	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.Options{Workers: opts.Parallelism, Metrics: opts.Metrics})
		defer eng.Close()
	}
	ejobs := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		ejobs[i] = j.Job
	}
	var verifyErr error
	_, err := eng.RunBatch(context.Background(), ejobs, func(i int, res sim.Result, err error) {
		if err != nil || verifyErr != nil {
			return
		}
		j := jobs[i]
		if opts.Verify && res.Checksum != j.ref {
			verifyErr = fmt.Errorf("harness: %s: architectural state diverged", j.what)
			return
		}
		done(i, res)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%s cycles=%9d ipc=%.3f cov=%.2f acc=%.2f\n",
				j.progress, res.Cycles, res.IPC, res.Coverage, res.Accuracy)
		}
	})
	if err != nil {
		// Engine errors already name the program, scheme and cause.
		return fmt.Errorf("harness: %w", err)
	}
	return verifyErr
}

// Get returns the result for a cell; it panics on a missing cell, which
// indicates the matrix was built with a different workload set.
func (m *Matrix) Get(w string, s secure.Scheme, ap bool) sim.Result {
	r, ok := m.Results[Key{w, s, ap}]
	if !ok {
		panic(fmt.Sprintf("harness: no result for %s/%v/ap=%v", w, s, ap))
	}
	return r
}

// NormIPC returns the run's IPC normalized to the unsafe no-AP baseline of
// the same workload (Figure 6's metric).
func (m *Matrix) NormIPC(w string, s secure.Scheme, ap bool) float64 {
	base := m.Get(w, secure.Unsafe, false)
	r := m.Get(w, s, ap)
	if r.Cycles == 0 {
		return 0
	}
	// Same instruction count either way, so the IPC ratio is the inverse
	// cycle ratio.
	return float64(base.Cycles) / float64(r.Cycles)
}

// NormL1 returns total L1 accesses normalized to the unsafe no-AP baseline.
func (m *Matrix) NormL1(w string, s secure.Scheme, ap bool) float64 {
	base := m.Get(w, secure.Unsafe, false).Memory.L1Accesses
	if base == 0 {
		return 0
	}
	return float64(m.Get(w, s, ap).Memory.L1Accesses) / float64(base)
}

// NormL2 returns total L2 accesses normalized to the unsafe no-AP baseline.
func (m *Matrix) NormL2(w string, s secure.Scheme, ap bool) float64 {
	base := m.Get(w, secure.Unsafe, false).Memory.L2Accesses
	if base == 0 {
		return 0
	}
	return float64(m.Get(w, s, ap).Memory.L2Accesses) / float64(base)
}

// Geomean computes the geometric mean of positive values; zeros are skipped.
func Geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// GeomeanNormIPC computes the suite geomean of normalized IPC for a cell.
func (m *Matrix) GeomeanNormIPC(s secure.Scheme, ap bool) float64 {
	vals := make([]float64, 0, len(m.Workloads))
	for _, w := range m.Workloads {
		vals = append(vals, m.NormIPC(w, s, ap))
	}
	return Geomean(vals)
}

// SlowdownReduction returns the fraction of a scheme's slowdown that
// address prediction removes (the paper's headline 42% / 48% / 30%).
func (m *Matrix) SlowdownReduction(s secure.Scheme) float64 {
	base := m.GeomeanNormIPC(s, false)
	ap := m.GeomeanNormIPC(s, true)
	if base >= 1 {
		return 0
	}
	return (ap - base) / (1 - base)
}

// GeomeanNormIPCAPFair is GeomeanNormIPC for the +AP cell, but normalized
// to the unsafe baseline *with* address prediction. On this synthetic suite
// the baseline itself gains a few percent from address prediction (the
// paper's SPEC baseline gains only 0.5%), so the AP-fair ratio isolates
// what the scheme loses relative to an equally-equipped baseline.
func (m *Matrix) GeomeanNormIPCAPFair(s secure.Scheme) float64 {
	vals := make([]float64, 0, len(m.Workloads))
	for _, w := range m.Workloads {
		baseAP := m.Get(w, secure.Unsafe, true)
		r := m.Get(w, s, true)
		if r.Cycles == 0 {
			continue
		}
		vals = append(vals, float64(baseAP.Cycles)/float64(r.Cycles))
	}
	return Geomean(vals)
}
