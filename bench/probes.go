package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"doppelganger/internal/engine"
	"doppelganger/internal/mem"
	"doppelganger/internal/obs"
	"doppelganger/internal/predictor"
	"doppelganger/sim"
)

// Probes time serial calls into one module's public functions, on inputs
// the traced run captured from its own workload, to cost layers that are
// too fine-grained to span from outside the program.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocMB returns the megabytes f allocates.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// probeNewCore makes n serial sim.NewCore calls and returns their median
// time and the megabytes each call allocates.
func probeNewCore(p *sim.Program, cfg sim.Config, n int) (p50ms, mbPerCall float64, err error) {
	durs := make([]float64, n)
	mb := allocMB(func() {
		for i := range durs {
			t := time.Now()
			if _, err = sim.NewCore(p, cfg); err != nil {
				return
			}
			durs[i] = ms(time.Since(t))
		}
	})
	return median(durs), mb / float64(n), err
}

// probeKeys returns the median time of Job.Key over jobs, in microseconds.
func probeKeys(jobs []engine.Job) float64 {
	durs := make([]float64, len(jobs))
	for i, j := range jobs {
		t := time.Now()
		_ = j.Key()
		durs[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return median(durs)
}

// memLog keeps a run's memory-system trace events: every hierarchy access
// the core made, in order.
type memLog struct{ events []obs.Event }

func (l *memLog) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindLoadIssue, obs.KindDoppIssue, obs.KindCacheAccess:
		l.events = append(l.events, e)
	}
}

func (l *memLog) EmitBatch(es []obs.Event) {
	for _, e := range es {
		l.Emit(e)
	}
}

// captureMemTrace runs p under cfg with a tracer and returns its accesses.
func captureMemTrace(p *sim.Program, cfg sim.Config) ([]obs.Event, error) {
	var l memLog
	if _, err := sim.RunContext(context.Background(), p, cfg, sim.WithTracer(&l)); err != nil {
		return nil, err
	}
	return l.events, nil
}

// replayMem feeds captured accesses, in order and at their cycles, into a
// fresh default hierarchy. It returns the time per access and how many
// accesses were satisfied at the level the run recorded.
func replayMem(events []obs.Event) (perAccess time.Duration, agree, total int) {
	h := mem.NewHierarchy(sim.DefaultCoreConfig().Memory)
	levels := make([]mem.Level, len(events))
	t := time.Now()
	for i, e := range events {
		class, opts := mem.ClassDemand, mem.AccessOptions{}
		switch {
		case e.Kind == obs.KindDoppIssue:
			class = mem.ClassDoppelganger
		case e.Kind == obs.KindCacheAccess && mem.Class(e.Class) == mem.ClassPrefetch:
			class, opts.Prefetch = mem.ClassPrefetch, true
		case e.Kind == obs.KindCacheAccess:
			class, opts.NoMSHR, opts.Write = mem.ClassWriteback, true, true
		}
		levels[i] = h.Access(e.Cycle, e.Addr, class, opts).Level
	}
	d := time.Since(t)
	for i, e := range events {
		if uint8(levels[i]) == e.Level {
			agree++
		}
	}
	if len(events) == 0 {
		return 0, 0, 0
	}
	return d / time.Duration(len(events)), agree, len(events)
}

// replayPredictor looks up, then trains, the paper's stride table with each
// captured demand load. It returns the time per lookup-and-train and the
// number of loads replayed.
func replayPredictor(events []obs.Event) (time.Duration, int) {
	s := predictor.NewStride(predictor.DefaultStrideConfig())
	n := 0
	t := time.Now()
	for _, e := range events {
		if e.Kind != obs.KindLoadIssue {
			continue
		}
		s.Predict(e.PC, 1)
		s.Train(e.PC, e.Addr)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return time.Since(t) / time.Duration(n), n
}

// probeUndo runs p under the unsafe baseline and under Cleanup and returns
// the megabytes Cleanup allocates beyond the baseline and the deepest undo
// journal seen, sampled every 1024 cycles.
func probeUndo(p *sim.Program) (extraMB float64, depthMax int, err error) {
	base := allocMB(func() {
		var c *sim.Core
		if c, err = sim.NewCore(p, sim.Config{Scheme: sim.Unsafe}); err == nil {
			err = c.Run(0, sim.DefaultMaxCycles)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	undo := allocMB(func() {
		var c *sim.Core
		if c, err = sim.NewCore(p, sim.Config{Scheme: sim.Cleanup}); err != nil {
			return
		}
		for steps := 1; !c.Halted(); steps++ {
			if c.Cycle() >= sim.DefaultMaxCycles {
				err = fmt.Errorf("undo probe: %s did not halt", p.Name)
				return
			}
			c.Step()
			if steps%1024 == 0 {
				depthMax = max(depthMax, c.Hierarchy().UndoPending())
			}
		}
	})
	return undo - base, depthMax, err
}
