package sim

import (
	"context"
	"fmt"

	"doppelganger/internal/obs"
	"doppelganger/internal/pipeline"
)

// RunOption customises a RunContext invocation. Options carry the run's
// observability attachments and limit overrides; the Config struct stays a
// pure, comparable description of *what* to simulate (it is fingerprinted
// for result caching, so side-effecting attachments must never live there).
type RunOption func(*runOpts)

type runOpts struct {
	sink      obs.TraceSink
	metrics   *obs.Metrics
	winOn     bool
	winFrom   uint64
	winTo     uint64
	maxCycles uint64
	observe   []obsRequest
}

// WithTracer attaches a trace sink: the core emits typed obs.Events for
// load issue/propagation, doppelganger issue/verify/squash, taint
// propagation, shadow open/close, cache accesses and branch squashes.
// Tracing never changes simulated behaviour — a traced run produces a
// byte-identical Result.Checksum to an untraced one.
func WithTracer(s obs.TraceSink) RunOption {
	return func(o *runOpts) { o.sink = s }
}

// WithMetrics attaches a metrics registry. During the run the core observes
// shadow lifetimes, load latencies and ROB/IQ occupancy into histograms and
// the hierarchy counts per-level hits and misses; at the end the run's
// counter totals are flushed via RecordMetrics. The registry may be shared
// across runs (it is safe for concurrent use) and aggregates.
func WithMetrics(m *obs.Metrics) RunOption {
	return func(o *runOpts) { o.metrics = m }
}

// WithTraceWindow restricts trace emission to cycles in [from, to]
// inclusive. A window starting at cycle 0 is valid. Metrics are unaffected
// by the window.
func WithTraceWindow(from, to uint64) RunOption {
	return func(o *runOpts) { o.winOn, o.winFrom, o.winTo = true, from, to }
}

// WithMaxCycles overrides the run's cycle budget (taking precedence over
// Config.MaxCycles).
func WithMaxCycles(n uint64) RunOption {
	return func(o *runOpts) { o.maxCycles = n }
}

// MicroDigest fingerprints the attacker-observable micro-architectural
// state of a finished run: cycle count, cache tag/LRU contents at every
// level, the MSHR occupancy timeline, traffic counters, and predictor
// tables. Observe captures it as Observation.Micro; internal/leakcheck
// diffs it between the two runs of a differential pair.
type MicroDigest = pipeline.MicroDigest

// stepChunk is how many cycles RunContext simulates between context
// checks when the context is cancellable.
const stepChunk = 1 << 16

// RunContext simulates the program to completion under the configuration,
// honouring context cancellation and any run options. It is the primary
// entry point; Run is a convenience wrapper over it.
//
// With a non-cancellable context (context.Background()) and no options the
// run takes the same uninterrupted path as Run — the observability hooks
// cost one predictable branch each when nothing is attached.
func RunContext(ctx context.Context, p *Program, cfg Config, opts ...RunOption) (Result, error) {
	c, err := NewCore(p, cfg)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, c, p, cfg, opts)
}

// run is the body RunContext and RunFromCheckpoint share once their core
// is built: attach the options, simulate, flush, and summarise.
func run(ctx context.Context, c *Core, p *Program, cfg Config, opts []RunOption) (Result, error) {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.sink != nil {
		c.SetTraceSink(o.sink)
	}
	if o.winOn {
		c.SetCycleWindow(o.winFrom, o.winTo)
	}
	if o.metrics != nil {
		c.SetMetrics(o.metrics)
	}
	if needsTraces(o.observe) {
		// A restored core's observation traces cover the post-restore
		// window only; both halves of a differential pair restore from
		// checkpoints taken at the same architectural point, so their
		// traces stay comparable.
		c.EnableObsTraces()
	}
	maxCycles := o.maxCycles
	if maxCycles == 0 {
		maxCycles = cfg.MaxCycles
	}
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	err := runCore(ctx, c, cfg.MaxInsts, maxCycles)
	// The chunked (cancellable) path steps the core directly, bypassing
	// Core.Run's exit flush; credit parked loads' stall counters, and
	// deliver buffered trace events and batched metrics, on every outcome
	// so counters, attached sinks and registries are complete even for
	// failed runs.
	c.SettleStalls()
	c.FlushTrace()
	c.FlushMetrics()
	if err != nil {
		return Result{}, fmt.Errorf("sim: %q under %v: %w", p.Name, cfg.Scheme, err)
	}
	res := Summarize(p, cfg, c)
	for _, r := range o.observe {
		r.capture(c, p)
	}
	if o.metrics != nil {
		RecordMetrics(o.metrics, res)
	}
	if f, ok := o.sink.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			return res, fmt.Errorf("sim: flushing trace sink: %w", err)
		}
	}
	return res, nil
}

// runCore drives the core to completion. A non-cancellable context takes
// the direct path; otherwise the run is chunked so cancellation is observed
// within stepChunk cycles.
func runCore(ctx context.Context, c *Core, maxInsts, maxCycles uint64) error {
	if ctx.Done() == nil {
		return c.Run(maxInsts, maxCycles)
	}
	for !c.Halted() {
		if maxInsts > 0 && c.Stats.Committed >= maxInsts {
			return nil
		}
		if c.Cycle() >= maxCycles {
			return fmt.Errorf("pipeline: cycle limit %d reached at %d committed instructions (possible deadlock)",
				maxCycles, c.Stats.Committed)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		end := c.Cycle() + stepChunk
		if end > maxCycles {
			end = maxCycles
		}
		for !c.Halted() && c.Cycle() < end {
			if maxInsts > 0 && c.Stats.Committed >= maxInsts {
				return nil
			}
			c.Step()
		}
	}
	return nil
}

// RecordMetrics flushes a finished run's counter totals into the registry.
// RunContext with WithMetrics does this automatically; call it directly to
// aggregate results obtained elsewhere (e.g. from a result cache).
func RecordMetrics(m *Metrics, res Result) {
	pipeline.RecordStats(m, res.Stats, res.Memory)
}
