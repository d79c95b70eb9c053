package engine_test

import (
	"testing"

	"doppelganger/internal/engine"
	"doppelganger/sim"
)

// keySink keeps the benchmarked key computation from being optimised away.
var keySink engine.Key

// BenchmarkJobKey measures the cache key of one test-scale stream job:
// the program image (code, registers and the sorted initial memory) plus
// the resolved configuration, hashed. Every engine submission, and every
// serve-mix request, pays it once.
func BenchmarkJobKey(b *testing.B) {
	w, ok := sim.WorkloadByName("stream")
	if !ok {
		b.Fatal("no stream workload")
	}
	j := engine.Job{Program: w.Build(sim.ScaleTest), Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = j.Key()
	}
}
