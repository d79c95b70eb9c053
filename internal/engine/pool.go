package engine

import (
	"context"
	"fmt"
	"time"

	"doppelganger/sim"
)

// stepChunk is how many cycles a worker simulates between cancellation
// checks. At the simulator's typical hundreds of kilocycles per millisecond
// this bounds cancellation latency to well under a second without touching
// the hot loop itself.
const stepChunk = 1 << 16

// worker drains the queue until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case t := <-e.queue:
			e.execute(t)
		}
	}
}

// execute runs one task, settles it, and publishes the result.
func (e *Engine) execute(t *task) {
	if e.met != nil {
		e.met.queueDepth.Dec()
	}
	if err := t.ctx.Err(); err != nil {
		// The submitter gave up while the task sat in the queue; settle
		// without simulating so cancellation stops queued work promptly.
		t.err = err
		e.ctr.errors.Add(1)
		e.finish(t)
		return
	}
	start := time.Now()
	res, obsv, err := e.runJob(t.ctx, t.job)
	elapsed := time.Since(start)
	e.ctr.simWallNS.Add(elapsed.Nanoseconds())
	t.res, t.obs, t.err = res, obsv, err
	if err != nil {
		e.ctr.errors.Add(1)
		if e.met != nil {
			e.met.jobErrors.Inc()
		}
	} else {
		e.ctr.jobsRun.Add(1)
		e.ctr.simCycles.Add(res.Cycles)
		e.cache.Put(t.key, cached{res, obsv})
		if e.met != nil {
			e.met.jobs.Inc()
			sim.RecordMetrics(e.met.reg, res)
		}
	}
	if e.met != nil {
		e.met.jobLatency.Observe(uint64(elapsed.Milliseconds()))
	}
	e.finish(t)
}

// finish removes the task from the in-flight index and wakes all waiters.
func (e *Engine) finish(t *task) {
	e.mu.Lock()
	if cur, ok := e.inflight[t.key]; ok && cur == t {
		delete(e.inflight, t.key)
	}
	e.mu.Unlock()
	close(t.done)
}

// runJob simulates a job to completion. The run is identical to sim.Run —
// Core.Run enforces the instruction and cycle bounds with the same checks —
// but proceeds in stepChunk-cycle slices so the worker can observe context
// cancellation and the job timeout between slices. Jobs with a non-empty
// Observe set additionally get a contract observation captured from the
// finished core, exactly as sim.Observe would have.
func (e *Engine) runJob(ctx context.Context, job Job) (sim.Result, sim.Observation, error) {
	timeout := job.Timeout
	if timeout == 0 {
		timeout = e.jobTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var core *sim.Core
	var err error
	if job.Checkpoint != nil {
		core, _, err = sim.NewCoreFromCheckpoint(job.Program, job.Config, job.Checkpoint)
	} else {
		core, err = sim.NewCore(job.Program, job.Config)
	}
	if err != nil {
		return sim.Result{}, sim.Observation{}, err
	}
	if e.met != nil {
		// Live histograms (shadow lifetime, load latency, occupancy) and
		// cache hit/miss counters; purely observational, so the cached
		// result stays interchangeable with an unobserved run's.
		core.SetMetrics(e.met.reg)
	}
	if len(job.Observe) > 0 && sim.ClausesNeedTraces(job.Observe) {
		core.EnableObsTraces()
	}
	maxCycles := job.Config.MaxCycles
	if maxCycles == 0 {
		maxCycles = sim.DefaultMaxCycles
	}
	for {
		if err := ctx.Err(); err != nil {
			return sim.Result{}, sim.Observation{}, fmt.Errorf("engine: %q under %v at cycle %d: %w",
				job.Program.Name, job.Config.Scheme, core.Cycle(), err)
		}
		target := core.Cycle() + stepChunk
		if target > maxCycles {
			target = maxCycles
		}
		err := core.Run(job.Config.MaxInsts, target)
		if err == nil {
			// Halted or hit the instruction bound.
			break
		}
		if core.Cycle() >= maxCycles {
			// The genuine cycle budget, not just this slice's target.
			return sim.Result{}, sim.Observation{}, fmt.Errorf("engine: %q under %v: %w",
				job.Program.Name, job.Config.Scheme, err)
		}
	}
	res := sim.Summarize(job.Program, job.Config, core)
	var obsv sim.Observation
	if len(job.Observe) > 0 {
		sim.CaptureObservation(&obsv, core, job.Program, job.Observe...)
	}
	return res, obsv, nil
}
