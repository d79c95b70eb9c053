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

// RunContext simulates the program to completion under the configuration,
// honouring context cancellation and any run options. It is the primary
// entry point; Run is a convenience wrapper over it. It runs on a fresh
// Runner; a caller with many short runs to make keeps a Runner instead.
//
// Every run, cancellable or not, takes the one run loop, Core.RunContext,
// which checks a cancellable context every 65,536 cycles and skips quiet
// cycles; the observability hooks cost one predictable branch each when
// nothing is attached.
func RunContext(ctx context.Context, p *Program, cfg Config, opts ...RunOption) (Result, error) {
	return new(Runner).RunContext(ctx, p, cfg, opts...)
}

// Runner makes runs on one core that it keeps between them: each run
// resets that core (Core.Reset) to the run's program and resolved core
// configuration instead of building a new one, so a caller making many
// short runs (a leakage sweep, a campaign worker) stops paying for a fresh
// core's allocation and zeroing on each. The configuration may change from
// run to run, scheme, address prediction and predictor kinds included; only
// a run whose configuration the core refuses (one that sizes its storage
// differently) builds a fresh core, which the Runner then keeps instead. A
// core whose run outgrew a short run's storage is not kept
// (Core.Outgrown), so an idle Runner holds at most about 3 MB. Results are
// identical to the package-level functions', which run on a fresh Runner.
//
// The zero value is ready to use. A Runner is not safe for concurrent use:
// give each goroutine its own. The kept core never leaves the Runner.
type Runner struct {
	core *Core
}

// coreFor returns the Runner's core in the state a fresh core for p under
// cfg starts in, with st restored when it is non-nil: the kept core, reset,
// unless it refuses cfg, and otherwise a fresh core that the Runner keeps
// from then on.
func (r *Runner) coreFor(p *Program, cfg Config, st *pipeline.CoreState) (*Core, error) {
	cc := cfg.ResolvedCore()
	if r.core != nil {
		var err error
		if st == nil {
			err = r.core.Reset(cc, p)
		} else {
			err = r.core.ResetFromState(cc, p, st)
		}
		if err == nil {
			return r.core, nil
		}
	}
	var c *Core
	var err error
	if st == nil {
		c, err = pipeline.New(cc, p)
	} else {
		c, err = pipeline.NewFromState(cc, p, st)
	}
	if err != nil {
		return nil, err
	}
	r.core = c
	return c, nil
}

// release drops the Runner's core when its last run outgrew a short run's
// storage (Core.Outgrown): a long run pays for its storage as it would on
// a fresh core, and an idle Runner holds at most a short run's footprint.
func (r *Runner) release() {
	if r.core != nil && r.core.Outgrown() {
		r.core = nil
	}
}

// RunContext is the package-level RunContext on the Runner's core.
func (r *Runner) RunContext(ctx context.Context, p *Program, cfg Config, opts ...RunOption) (Result, error) {
	defer r.release()
	c, err := r.coreFor(p, cfg, nil)
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
	if err := c.RunContext(ctx, cfg.MaxInsts, maxCycles); err != nil {
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

// RecordMetrics flushes a finished run's counter totals into the registry.
// RunContext with WithMetrics does this automatically; call it directly to
// aggregate results obtained elsewhere (e.g. from a result cache).
func RecordMetrics(m *Metrics, res Result) {
	pipeline.RecordStats(m, res.Stats, res.Memory)
}
