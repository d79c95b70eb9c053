// Package sim is the public API of the doppelganger simulator: it composes
// the out-of-order core, the memory hierarchy, the secure speculation
// schemes (the paper's NDA-P, STT and Delay-on-Miss, plus the extensions
// NDA-S, STT-Spectre and Cleanup) and the doppelganger-load mechanism
// from the paper "Doppelganger Loads: A Safe, Complexity-Effective
// Optimization for Secure Speculation Schemes" (ISCA 2023).
//
// Typical use:
//
//	p := sim.MustAssemble("demo", src)
//	res, err := sim.Run(p, sim.Config{Scheme: sim.DoM, AddressPrediction: true})
//	fmt.Println(res.IPC, res.Coverage)
package sim

import (
	"context"

	"doppelganger/internal/pipeline"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
)

// Scheme selects the secure speculation scheme; see the constants below.
type Scheme = secure.Scheme

// The available schemes.
const (
	// Unsafe is the unprotected out-of-order baseline.
	Unsafe = secure.Unsafe
	// NDAP is Non-speculative Data Access with permissive propagation.
	NDAP = secure.NDAP
	// STT is Speculative Taint Tracking.
	STT = secure.STT
	// DoM is Delay-on-Miss.
	DoM = secure.DoM
	// NDAS is NDA with strict propagation (extension beyond the paper's
	// evaluation).
	NDAS = secure.NDAS
	// STTSpectre is STT under the Spectre threat model (extension).
	STTSpectre = secure.STTSpectre
	// Cleanup is the undo-based scheme: speculate like Unsafe, roll the
	// cache hierarchy back on squash (extension; CleanupSpec-style).
	Cleanup = secure.Cleanup
)

// ParseScheme maps a scheme name (as listed by AllSchemes) to its value.
func ParseScheme(name string) (Scheme, error) { return secure.ParseScheme(name) }

// Schemes lists the paper's evaluated schemes in evaluation order.
func Schemes() []Scheme { return secure.Schemes() }

// AllSchemes additionally includes this reproduction's extension variants
// (nda-s, stt-spectre, cleanup).
func AllSchemes() []Scheme { return secure.AllSchemes() }

// Program is an executable program image (instructions plus initial state).
type Program = program.Program

// Builder constructs programs imperatively; see NewBuilder.
type Builder = program.Builder

// SecretRegion is a byte range of data memory labeled as holding secrets
// (Program.Secrets, Builder.Secret). The contract oracle seeds its taint
// tracking from these labels; execution is unaffected.
type SecretRegion = program.Region

// TaintState is the result of taint-tracking architectural execution; see
// InterpretTainted.
type TaintState = program.TaintState

// ArchState is the architectural machine state produced by Interpret and by
// a finished Core.
type ArchState = program.ArchState

// Core is the underlying cycle-level machine, exposed for advanced uses
// (custom stepping, invalidation injection, predictor inspection).
type Core = pipeline.Core

// CoreConfig holds the full microarchitectural configuration (Table 1 of
// the paper by default; see DefaultCoreConfig).
type CoreConfig = pipeline.Config

// Stats are the raw event counters collected by a run.
type Stats = pipeline.Stats

// MemoryStats are the per-level cache access counts of a run.
type MemoryStats = pipeline.MemoryStats

// NewBuilder returns a program builder.
func NewBuilder(name string) *Builder { return program.NewBuilder(name) }

// Assemble parses textual assembly into a Program.
func Assemble(name, src string) (*Program, error) { return program.Assemble(name, src) }

// MustAssemble is Assemble that panics on error.
func MustAssemble(name, src string) *Program { return program.MustAssemble(name, src) }

// Interpret executes the program functionally (no microarchitecture) for at
// most maxInsts instructions and returns the architectural state. It is the
// reference oracle the pipeline is tested against.
func Interpret(p *Program, maxInsts uint64) *ArchState { return program.Run(p, maxInsts) }

// InterpretTainted executes the program functionally while tracking secret
// taint from its Secrets labels. The arch observer's digest (PubChecksum)
// and the constant-time diagnosis both come from here; sim.Observe runs it
// automatically.
func InterpretTainted(p *Program, maxInsts uint64) *TaintState {
	return program.RunTainted(p, maxInsts)
}

// DefaultCoreConfig returns the paper's Table 1 configuration.
func DefaultCoreConfig() CoreConfig { return pipeline.DefaultConfig() }

// Predictor and branch-predictor kind re-exports for Config.Core overrides.
const (
	// PredictorStride is the paper's PC-stride table.
	PredictorStride = pipeline.PredictorStride
	// PredictorContext is the Markov address predictor (extension).
	PredictorContext = pipeline.PredictorContext
	// PredictorHybrid tries stride first, then context (extension).
	PredictorHybrid = pipeline.PredictorHybrid
	// BranchBimodal is the default direction predictor.
	BranchBimodal = pipeline.BranchBimodal
	// BranchGShare is the history-based direction predictor (extension).
	BranchGShare = pipeline.BranchGShare
)

// Config selects what to simulate.
type Config struct {
	// Scheme is the secure speculation scheme (default Unsafe).
	Scheme Scheme
	// AddressPrediction enables doppelganger loads.
	AddressPrediction bool
	// MaxInsts bounds committed instructions (0 = run to Halt).
	MaxInsts uint64
	// MaxCycles bounds simulated cycles (0 = a generous default); hitting
	// it is reported as an error since it indicates a stuck machine or a
	// program that never halts.
	MaxCycles uint64
	// Core overrides the microarchitectural configuration; nil uses
	// DefaultCoreConfig with Scheme and AddressPrediction applied.
	Core *CoreConfig
}

// DefaultMaxCycles bounds runs that do not specify their own cycle budget.
const DefaultMaxCycles = 2_000_000_000

// Result summarises a run.
type Result struct {
	Program string
	Scheme  Scheme
	AP      bool

	Cycles uint64
	Insts  uint64
	IPC    float64

	// Coverage is the fraction of committed loads correctly address
	// predicted; Accuracy is correct predictions over predictions made
	// (Figure 7 definitions).
	Coverage float64
	Accuracy float64

	// Checksum digests the final architectural state (registers and
	// memory). Equal checksums across schemes certify that a secure
	// scheme preserved the baseline's architectural behaviour, and they
	// let cached or remotely-computed results be verified without
	// re-simulating.
	Checksum uint64

	Stats  Stats
	Memory MemoryStats
}

// NewCore builds a fresh core for the program under the given
// configuration without running it.
func NewCore(p *Program, cfg Config) (*Core, error) {
	return pipeline.New(cfg.ResolvedCore(), p)
}

// Run simulates the program to completion under the configuration and
// returns the result summary. It is equivalent to RunContext with a
// background context and no options; use RunContext to attach tracing or
// metrics, or to make the run cancellable.
func Run(p *Program, cfg Config) (Result, error) {
	return RunContext(context.Background(), p, cfg)
}

// Summarize assembles a Result from a finished core.
func Summarize(p *Program, cfg Config, c *Core) Result {
	st := c.StatsSnapshot()
	return Result{
		Program:  p.Name,
		Scheme:   cfg.Scheme,
		AP:       cfg.AddressPrediction,
		Cycles:   st.Cycles,
		Insts:    st.Committed,
		IPC:      st.IPC(),
		Coverage: st.Coverage(),
		Accuracy: st.Accuracy(),
		Checksum: c.Checksum(),
		Stats:    st,
		Memory:   pipeline.SnapshotMemory(c.Hierarchy()),
	}
}
