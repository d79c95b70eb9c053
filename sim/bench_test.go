package sim_test

import (
	"context"
	"testing"

	"doppelganger/internal/checkpoint"
	"doppelganger/internal/leakcheck"
	"doppelganger/sim"
)

func benchProgram(b *testing.B) *sim.Program {
	b.Helper()
	w, ok := sim.WorkloadByName("stream")
	if !ok {
		b.Fatal("no stream workload")
	}
	return w.Build(sim.ScaleTest)
}

// BenchmarkRunUntraced is the baseline the observability layer must not
// slow down: no sink, no metrics — the disabled fast path.
func BenchmarkRunUntraced(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.DoM, AddressPrediction: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTracedCounting measures the tracing-enabled path with the
// cheapest possible sink, isolating emit overhead from encoding cost.
func BenchmarkRunTracedCounting(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.DoM, AddressPrediction: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink := &sim.CountingSink{}
		if _, err := sim.RunContext(context.Background(), p, cfg, sim.WithTracer(sink)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWithMetrics measures the metrics-attached path: per-event
// histogram observations plus the end-of-run counter flush.
func BenchmarkRunWithMetrics(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.DoM, AddressPrediction: true}
	m := sim.NewMetrics()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunContext(context.Background(), p, cfg, sim.WithMetrics(m)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunUnsafe is BenchmarkRunCleanup's like-for-like comparator:
// the same program on the unprotected core Cleanup speculates like, so the
// gap between the two is the cost of the undo journal alone.
func BenchmarkRunUnsafe(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.Unsafe}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCleanup measures the undo-journal path: Cleanup speculates
// like the unsafe core but journals every speculative cache side effect
// and rolls the hierarchy back on squash, so this gates the journaling
// overhead on the common no-squash fast path as well as rollback cost.
func BenchmarkRunCleanup(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.Cleanup}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFromCheckpoint measures the warm-start path: restore from a
// mid-run snapshot and finish. The snapshot itself is taken once outside
// the loop, matching how the harness amortizes one warmup across every
// scheme cell.
func BenchmarkRunFromCheckpoint(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.DoM, AddressPrediction: true}
	ck, err := sim.Snapshot(p, cfg, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunFromCheckpoint(context.Background(), p, cfg, ck); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotGadget measures checkpoint encode and decode on a
// leakcheck gadget's snapshot (Generate(1) under DoM with doppelganger
// loads, 200 warm-up instructions): the canonical encoding and digest of
// the captured state, then decoding and verifying that encoding. The
// snapshot is taken once, outside the loop.
func BenchmarkSnapshotGadget(b *testing.B) {
	g := leakcheck.Generate(1).Normalize()
	snap, err := sim.Snapshot(g.Build(g.SecretA), leakcheck.Config{Scheme: sim.DoM, AP: true}.SimConfig(g), 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := checkpoint.New(snap.Meta(), snap.State())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.DecodeCheckpoint(ck.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveGadgetPair measures one leakcheck differential pair under
// Cleanup with doppelganger loads: a gadget run of a few thousand cycles
// on a fresh core, the second run on that core reset, and two full
// observations. Core set-up and observation capture dominate it, so its
// B/op gates cache storage that scales with capacity instead of with the
// sets a run fills, and a pair that builds its core twice.
func BenchmarkObserveGadgetPair(b *testing.B) {
	p := leakcheck.Generate(1)
	cfg := leakcheck.Config{Scheme: sim.Cleanup, AP: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := leakcheck.Check(context.Background(), p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// gadgetRun is one run of a leakcheck gadget under Cleanup with
// doppelganger loads, the short-run shape core reuse serves.
func gadgetRun() (*sim.Program, sim.Config) {
	p := leakcheck.Generate(1).Normalize()
	return p.Build(p.SecretA), leakcheck.Config{Scheme: sim.Cleanup, AP: true}.SimConfig(p)
}

// BenchmarkNewCoreGadget measures a gadget run on a fresh core each time,
// BenchmarkCoreReset's comparator: the gap between the two is what
// building a core costs a short run.
func BenchmarkNewCoreGadget(b *testing.B) {
	p, cfg := gadgetRun()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreReset measures the same gadget run on one sim.Runner's
// core, reset before each run instead of rebuilt.
func BenchmarkCoreReset(b *testing.B) {
	p, cfg := gadgetRun()
	var r sim.Runner
	if _, err := r.RunContext(context.Background(), p, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunContext(context.Background(), p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerMixedConfigs measures one sim.Runner making a campaign
// batch's runs in the order campaign.Run submits them, genome-major: eight
// genomes, each one's two secrets under every default config (the paper's
// schemes ±AP), observing the full contract lattice. The last genome
// poisons the branch predictor, so its runs switch the core to gshare.
// Every run resets the previous run's core, whatever its configuration.
func BenchmarkRunnerMixedConfigs(b *testing.B) {
	type job struct {
		p   *sim.Program
		cfg sim.Config
	}
	var jobs []job
	for seed := int64(0); seed < 8; seed++ {
		g := leakcheck.Generate(seed)
		if seed == 7 {
			g.Kind = leakcheck.KindBranchPoison
		}
		g = g.Normalize()
		pa, pb := g.Build(g.SecretA), g.Build(g.SecretB)
		for _, c := range leakcheck.DefaultConfigs() {
			sc := c.SimConfig(g)
			jobs = append(jobs, job{pa, sc}, job{pb, sc})
		}
	}
	lattice := sim.Lattice()
	var r sim.Runner
	var o sim.Observation
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := r.RunContext(context.Background(), j.p, j.cfg, sim.Observe(&o, lattice...)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunDoMStall measures the cell with the most parked loads: DoM
// without doppelganger loads on random_walk, a memory-bound kernel whose
// speculative misses are delayed until their loads turn non-speculative.
// Most of its load queue waits on the shadow frontier each cycle, so it
// gates the cost of loads that are waiting rather than working.
func BenchmarkRunDoMStall(b *testing.B) {
	w, ok := sim.WorkloadByName("random_walk")
	if !ok {
		b.Fatal("no random_walk workload")
	}
	p := w.Build(sim.ScaleTest)
	cfg := sim.Config{Scheme: sim.DoM}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPointerChase measures the most stall-heavy kernel: unsafe
// on pointer_chase, whose dependent DRAM misses leave about three cycles
// in four with nothing to do. It gates the cost of cycles in which the
// core waits on memory, which the run loop skips.
func BenchmarkRunPointerChase(b *testing.B) {
	w, ok := sim.WorkloadByName("pointer_chase")
	if !ok {
		b.Fatal("no pointer_chase workload")
	}
	p := w.Build(sim.ScaleTest)
	cfg := sim.Config{Scheme: sim.Unsafe}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNDAP measures NDA-P with doppelganger loads on stream: loads
// whose values are present but held back until they are non-speculative,
// released when the oldest unresolved shadow moves.
func BenchmarkRunNDAP(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.NDAP, AddressPrediction: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSTTStall measures STT without doppelganger loads on stream:
// loads whose addresses carry a speculative taint root wait at the issue
// gate, parked until the shadow frontier passes the root, and
// STTTaintStalls is credited for the interval. It gates the cost of a load
// that is stalled rather than working.
func BenchmarkRunSTTStall(b *testing.B) {
	p := benchProgram(b)
	cfg := sim.Config{Scheme: sim.STT}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGadgetSweep measures a small leakcheck sweep on one worker:
// eight gadget seeds under unsafe, NDA-P, STT, DoM and Cleanup, each ±AP.
// Gadget runs last a few thousand cycles, so it weighs core set-up and
// observation against MSHR-full retries, taint stalls and DoM+AP's
// in-order branch queue, the waiters a sweep spends its cycles on.
func BenchmarkGadgetSweep(b *testing.B) {
	var cfgs []leakcheck.Config
	for _, s := range []sim.Scheme{sim.Unsafe, sim.NDAP, sim.STT, sim.DoM, sim.Cleanup} {
		cfgs = append(cfgs, leakcheck.Config{Scheme: s}, leakcheck.Config{Scheme: s, AP: true})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := leakcheck.Sweep(context.Background(), cfgs, 0, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}
