package engine

import (
	"context"
	"time"

	"doppelganger/sim"
)

// worker drains the queue until the engine closes. Each worker owns one
// sim.Runner, so a job resets the worker's previous job's core to its own
// configuration instead of building a new one (sim.Runner).
func (e *Engine) worker() {
	defer e.wg.Done()
	var r sim.Runner
	for {
		select {
		case <-e.quit:
			return
		case t := <-e.queue:
			e.execute(&r, t)
		}
	}
}

// execute runs one task on the worker's runner, settles it, and publishes
// the result.
func (e *Engine) execute(r *sim.Runner, t *task) {
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
	res, obsv, err := e.runJob(t.ctx, r, t.job)
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

// runJob simulates a job to completion on the runner: sim.RunContext, or
// sim.RunFromCheckpoint for a warm start, under the job's timeout. With a
// metrics registry the run observes its live histograms and hit/miss
// counters and, once it succeeds, its counter totals into it; purely
// observational, so the cached result stays interchangeable with an
// unobserved run's. Jobs with a non-empty Observe set additionally get a
// contract observation of those clauses.
func (e *Engine) runJob(ctx context.Context, r *sim.Runner, job Job) (sim.Result, sim.Observation, error) {
	timeout := job.Timeout
	if timeout == 0 {
		timeout = e.jobTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var opts []sim.RunOption
	if e.met != nil {
		opts = append(opts, sim.WithMetrics(e.met.reg))
	}
	var obsv sim.Observation
	if len(job.Observe) > 0 {
		opts = append(opts, sim.Observe(&obsv, job.Observe...))
	}
	var res sim.Result
	var err error
	if job.Checkpoint != nil {
		res, err = r.RunFromCheckpoint(ctx, job.Program, job.Config, job.Checkpoint, opts...)
	} else {
		res, err = r.RunContext(ctx, job.Program, job.Config, opts...)
	}
	if err != nil {
		return sim.Result{}, sim.Observation{}, err
	}
	return res, obsv, nil
}
