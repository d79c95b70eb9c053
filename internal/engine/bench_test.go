package engine_test

import (
	"testing"

	"doppelganger/internal/engine"
	"doppelganger/sim"
)

// keySink keeps the benchmarked key computation from being optimised away.
var keySink engine.Key

// streamJob is a test-scale stream job under DoM with address prediction.
func streamJob(b *testing.B) engine.Job {
	w, ok := sim.WorkloadByName("stream")
	if !ok {
		b.Fatal("no stream workload")
	}
	return engine.Job{Program: w.Build(sim.ScaleTest), Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true}}
}

// BenchmarkJobKey measures the first cache key of a test-scale stream
// program: the program image (code, registers and the sorted initial
// memory) hashed, then the resolved configuration. Each iteration keys a
// fresh Program sharing stream's code and memory, so none resumes from a
// saved image hash.
func BenchmarkJobKey(b *testing.B) {
	j := streamJob(b)
	src := j.Program
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Program = &sim.Program{Name: src.Name, Entry: src.Entry, Code: src.Code,
			InitRegs: src.InitRegs, InitMem: src.InitMem, Secrets: src.Secrets}
		keySink = j.Key()
	}
}

// BenchmarkJobKeyRepeat measures a repeated key of the same job: the image
// hash resumes from the state the first key saved, so only the
// configuration is encoded. Every cached engine submission, and every hot
// serve-mix request, pays this.
func BenchmarkJobKeyRepeat(b *testing.B) {
	j := streamJob(b)
	keySink = j.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = j.Key()
	}
}
