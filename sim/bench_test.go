package sim_test

import (
	"context"
	"testing"

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
