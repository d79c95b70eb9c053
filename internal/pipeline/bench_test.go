package pipeline_test

import (
	"testing"
	"time"

	"doppelganger/internal/leakcheck"
	"doppelganger/internal/pipeline"
	"doppelganger/sim"
)

// BenchmarkLoadQueuePass measures one load-queue pass of a leakage gadget
// (seed 1 under Cleanup with doppelganger loads, a few thousand cycles)
// that has a load to visit: the passes of the active cycles, whatever
// their load queue holds. Everything else — resetting the core, the other
// stages of each cycle and the passes with no awake load — is set-up: a
// monotonic clock read around each measured pass times the pass alone, and
// the reported ns/op is that time per pass. B/op and allocs/op count the
// set-up too, which on a core that has run the gadget once allocates
// nothing.
func BenchmarkLoadQueuePass(b *testing.B) {
	gp := leakcheck.Generate(1).Normalize()
	p := gp.Build(gp.SecretA)
	cfg := leakcheck.Config{Scheme: sim.Cleanup, AP: true}.SimConfig(gp).ResolvedCore()
	c, err := pipeline.New(cfg, p)
	if err != nil {
		b.Fatal(err)
	}
	// A first run allocates the storage the gadget fills; the measured
	// runs reuse it.
	if err := c.Run(0, 1_000_000); err != nil {
		b.Fatal(err)
	}
	var pass time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		if c.Halted() {
			if err := c.Reset(cfg, p); err != nil {
				b.Fatal(err)
			}
		}
		if !c.StepToLoadQueuePass() {
			continue
		}
		if c.AwakeLoads() {
			t0 := time.Now()
			c.LoadQueuePass()
			pass += time.Since(t0)
			i++
		} else {
			c.LoadQueuePass()
		}
		c.FinishCycle()
	}
	b.ReportMetric(float64(pass.Nanoseconds())/float64(b.N), "ns/op")
}
