package sim

import (
	"context"
	"fmt"

	"doppelganger/internal/checkpoint"
	"doppelganger/internal/isa"
	"doppelganger/internal/pipeline"
)

// Checkpoint is a serializable, versioned, checksum-verified snapshot of
// complete simulation state: architectural registers and memory, the cache
// hierarchy (tags, LRU, MSHRs), and every predictor table, plus the
// program it was taken of. Create one with Snapshot, or load one with
// ReadCheckpoint / DecodeCheckpoint; fork runs from it with
// RunFromCheckpoint.
type Checkpoint = checkpoint.Checkpoint

// CheckpointMeta is a checkpoint's provenance metadata.
type CheckpointMeta = checkpoint.Meta

// ReadCheckpoint loads and verifies a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) { return checkpoint.ReadFile(path) }

// DecodeCheckpoint parses and verifies an encoded checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return checkpoint.Decode(data) }

// resolvedCoreConfig materialises the full core configuration a Config
// describes (the same resolution NewCore applies).
func resolvedCoreConfig(cfg Config) CoreConfig {
	cc := cfg.Core
	if cc == nil {
		d := pipeline.DefaultConfig()
		cc = &d
	}
	core := *cc
	core.Scheme = cfg.Scheme
	core.AddressPrediction = cfg.AddressPrediction
	return core
}

// Snapshot simulates the program under the configuration until
// warmupInsts instructions have committed, drains the pipeline to
// quiescence, and captures the complete simulation state as a checkpoint.
// The drain lets the in-flight window complete (a few more instructions
// may commit than requested; the checkpoint records the actual count in
// its Stats), so the snapshot carries no transient pipeline state.
//
// The captured architectural state is scheme-invariant — every scheme
// computes the same architectural results — so a checkpoint warmed under
// one scheme can seed runs under any other; the µarch tables (caches,
// predictors) reflect warmup under the snapshot configuration, which is
// the standard warm-start trade-off.
func Snapshot(p *Program, cfg Config, warmupInsts uint64) (*Checkpoint, error) {
	if warmupInsts == 0 {
		return nil, fmt.Errorf("sim: snapshot requires a positive warmup instruction count")
	}
	c, err := NewCore(p, cfg)
	if err != nil {
		return nil, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	if err := c.Run(warmupInsts, maxCycles); err != nil {
		return nil, fmt.Errorf("sim: warming %q under %v: %w", p.Name, cfg.Scheme, err)
	}
	if err := c.Drain(0); err != nil {
		return nil, fmt.Errorf("sim: %q under %v: %w", p.Name, cfg.Scheme, err)
	}
	st, err := c.CaptureState()
	if err != nil {
		return nil, fmt.Errorf("sim: %q under %v: %w", p.Name, cfg.Scheme, err)
	}
	meta := CheckpointMeta{
		ProgramName:  p.Name,
		ProgramEntry: p.Entry,
		Code:         append([]isa.Instruction(nil), p.Code...),
		WarmScheme:   cfg.Scheme.String(),
		WarmAP:       cfg.AddressPrediction,
		WarmupInsts:  warmupInsts,
		WarmConfig:   resolvedCoreConfig(cfg),
	}
	return checkpoint.New(meta, st)
}

// NewCoreFromCheckpoint builds a core that continues from the checkpoint
// under the given configuration, without running it. The configuration's
// Scheme and AddressPrediction may differ from the checkpoint's warm
// configuration — that is how one warmup seeds every scheme×AP cell —
// but structural parameters (cache geometry, predictor tables) must
// match the captured state. Passing a nil program uses the checkpoint's
// embedded one; a non-nil program must be code-compatible.
func NewCoreFromCheckpoint(p *Program, cfg Config, ck *Checkpoint) (*Core, *Program, error) {
	if ck == nil {
		return nil, nil, fmt.Errorf("sim: nil checkpoint")
	}
	if p == nil {
		p = ck.Program()
	} else if err := ck.CompatibleWith(p); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	c, err := pipeline.NewFromState(resolvedCoreConfig(cfg), p, ck.State())
	if err != nil {
		return nil, nil, err
	}
	return c, p, nil
}

// RunFromCheckpoint restores the checkpoint under the configuration and
// simulates to completion, honouring context cancellation and the same
// run options as RunContext. Config.MaxInsts bounds *total* committed
// instructions including the checkpoint's warmup (the restored core's
// commit counter carries over), so a bounded straight-line run and the
// equivalent warm-started run stop at the same architectural point and
// produce identical Result.Checksums.
//
// Passing a nil program runs the checkpoint's embedded program.
func RunFromCheckpoint(ctx context.Context, p *Program, cfg Config, ck *Checkpoint, opts ...RunOption) (Result, error) {
	c, p, err := NewCoreFromCheckpoint(p, cfg, ck)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, c, p, cfg, opts)
}
