package pipeline

import (
	"fmt"

	"doppelganger/internal/isa"
	"doppelganger/internal/mem"
	"doppelganger/internal/predictor"
	"doppelganger/internal/program"
)

// This file implements the core's side of the checkpoint subsystem: drain
// the pipeline to a quiescent point, capture the complete simulation state
// as a serializable CoreState, and rebuild a core from one.
//
// The snapshot is taken at quiescence — the in-flight window is drained
// first (fetch suppressed, everything in the ROB commits or squashes) — so
// no uop, load-queue, store-queue, or shadow-tracker contents ever need
// serializing: the capture records their occupancies and restore asserts
// they are zero. This is the gem5 drain-before-checkpoint discipline, and
// it is what makes the format stable: the on-disk image is architectural
// state plus the long-lived µarch tables (caches, MSHRs, predictors),
// not a dump of transient pipeline plumbing.

// DrainBudget is the default cycle allowance for draining the in-flight
// window. The window is bounded by the ROB, and every entry completes in
// bounded time (worst case a chain of DRAM misses), so a healthy pipeline
// drains in well under this.
const DrainBudget = 1_000_000

// Drain suppresses fetch and steps the core, skipping quiet cycles as
// RunContext does, until the pipeline is empty: every in-flight
// instruction has committed or squashed. Mispredicted branches resolve and
// repair the front end during the drain, so fetchPC and the branch history
// are architecturally correct afterwards. Fetch is re-enabled on success,
// so the core can continue running.
func (c *Core) Drain(maxCycles uint64) error {
	if maxCycles == 0 {
		maxCycles = DrainBudget
	}
	c.fetchStalled = true
	start := c.cycle
	var sc skipCheck
	for !c.halted && (c.rob.len() > 0 || len(c.fetchBuf) > 0) {
		c.skipQuiet(start+maxCycles, &sc)
		if c.cycle-start >= maxCycles {
			return fmt.Errorf("pipeline: drain did not quiesce within %d cycles (%d in flight)",
				maxCycles, c.rob.len())
		}
		c.Step()
	}
	c.fetchStalled = false
	return nil
}

// MemPageState is one 4 KiB page of the committed memory image.
type MemPageState struct {
	Key     uint64                 `json:"key"`
	Words   [pageWords]int64       `json:"words"`
	Present [pageWords / 64]uint64 `json:"present"`
}

// CoreState is the complete serializable simulation state at a quiescent
// point. Predictor and hierarchy sections are nil when the captured core
// did not instantiate that component; restoring a nil section leaves the
// new core's component cold (freshly initialized), which is the correct
// reading of "the warm run never trained it".
type CoreState struct {
	Cycle       uint64 `json:"cycle"`
	SeqCtr      uint64 `json:"seq_ctr"`
	Halted      bool   `json:"halted,omitempty"`
	HaltFetched bool   `json:"halt_fetched,omitempty"`
	FetchPC     uint64 `json:"fetch_pc"`
	FetchHist   uint64 `json:"fetch_hist,omitempty"`

	// Regs is the architectural register file; TaintRoots the YRoT taint
	// root of each architectural register (restored so STT's taint
	// propagation census evolves identically to a straight-line run —
	// stale roots are never *live* at quiescence, but they do propagate).
	Regs       [isa.NumRegs]int64  `json:"regs"`
	TaintRoots [isa.NumRegs]uint64 `json:"taint_roots"`

	// Mem is the committed memory image, pages sorted by key for a
	// deterministic encoding.
	Mem []MemPageState `json:"mem"`

	// CommittedPC is the per-PC committed-instance count (predictor
	// occurrence rebasing); its length is the program length.
	CommittedPC []uint64 `json:"committed_pc"`

	Stats Stats `json:"stats"`

	// Shadow/taint tracker census (the trackers themselves are empty at
	// quiescence; StatsSnapshot reads these live).
	ShadowsOpened     uint64 `json:"shadows_opened"`
	ShadowsPeak       int    `json:"shadows_peak"`
	CtrlShadowsOpened uint64 `json:"ctrl_shadows_opened"`
	CtrlShadowsPeak   int    `json:"ctrl_shadows_peak"`
	TaintedWrites     uint64 `json:"tainted_writes"`

	Hier      *mem.HierarchyState       `json:"hier,omitempty"`
	Stride    *predictor.StrideState    `json:"stride,omitempty"`
	Context   *predictor.ContextState   `json:"context,omitempty"`
	Bimodal   *predictor.BimodalState   `json:"bimodal,omitempty"`
	GShare    *predictor.GShareState    `json:"gshare,omitempty"`
	Value     *predictor.ValueState     `json:"value,omitempty"`
	StoreSets *predictor.StoreSetsState `json:"store_sets,omitempty"`
}

// quiescent returns nil when no transient pipeline state is in flight.
func (c *Core) quiescent() error {
	switch {
	case c.rob.len() > 0:
		return fmt.Errorf("%d ROB entries in flight", c.rob.len())
	case len(c.fetchBuf) > 0:
		return fmt.Errorf("%d fetched instructions buffered", len(c.fetchBuf))
	case c.iqLen > 0 || len(c.inflightExec) > 0 || len(c.pendingResolve) > 0:
		return fmt.Errorf("issue/execute queues not empty")
	case c.lq.len() > 0 || c.sq.len() > 0:
		return fmt.Errorf("load/store queues not empty")
	case c.shadows.Outstanding() > 0 || c.ctrlShadows.Outstanding() > 0:
		return fmt.Errorf("unresolved shadows outstanding")
	case c.hier.UndoPending() > 0:
		return fmt.Errorf("%d unretired undo-journal records", c.hier.UndoPending())
	case len(c.specLog) > 0:
		return fmt.Errorf("%d buffered speculative-trace folds", len(c.specLog))
	}
	for pc, n := range c.inflight {
		if n != 0 {
			return fmt.Errorf("pc %d has %d in-flight loads", pc, n)
		}
	}
	return nil
}

// CaptureState snapshots the core. The core must be quiescent (Drain
// first, or halted); capturing mid-flight is refused because transient
// pipeline state is deliberately not serializable.
func (c *Core) CaptureState() (*CoreState, error) {
	if err := c.quiescent(); err != nil {
		return nil, fmt.Errorf("pipeline: cannot capture a non-quiescent core: %v", err)
	}
	st := &CoreState{
		Cycle:             c.cycle,
		SeqCtr:            c.seqCtr,
		Halted:            c.halted,
		HaltFetched:       c.haltFetched,
		FetchPC:           c.fetchPC,
		FetchHist:         c.fetchHist,
		Regs:              c.ArchRegs(),
		CommittedPC:       append([]uint64(nil), c.committedPC...),
		Stats:             c.Stats,
		ShadowsOpened:     c.shadows.Opened(),
		ShadowsPeak:       c.shadows.Peak(),
		CtrlShadowsOpened: c.ctrlShadows.Opened(),
		CtrlShadowsPeak:   c.ctrlShadows.Peak(),
		TaintedWrites:     c.taints.TaintedWrites(),
		Hier:              c.hier.State(),
		Stride:            c.stride.State(),
	}
	for r := 0; r < isa.NumRegs; r++ {
		st.TaintRoots[r] = c.taints.Root(c.renameMap[r])
	}
	st.Mem = c.backing.state()
	if c.ctx != nil {
		st.Context = c.ctx.State()
	}
	if c.bpBim != nil {
		st.Bimodal = c.bpBim.State()
	}
	if c.bpG != nil {
		st.GShare = c.bpG.State()
	}
	if c.vp != nil {
		st.Value = c.vp.State()
	}
	if c.sset != nil {
		st.StoreSets = c.sset.State()
	}
	return st, nil
}

// state serializes the memory image with pages sorted by key.
func (m *memImage) state() []MemPageState {
	out := make([]MemPageState, 0, len(m.pages))
	for key, p := range m.pages {
		out = append(out, MemPageState{Key: key, Words: p.words, Present: p.present})
	}
	// Insertion sort by key: page counts are small (sparse workload
	// footprints) and this keeps the file free of a sort import.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Key > out[j].Key; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// restoreState rebuilds the memory image from captured pages.
func (m *memImage) restoreState(pages []MemPageState) {
	m.reset()
	for i := range pages {
		ps := &pages[i]
		p := m.newPage(ps.Key)
		p.words = ps.Words
		p.present = ps.Present
	}
}

// NewFromState builds a core for the given program and configuration, then
// overwrites its long-lived state with a captured snapshot. The
// configuration may differ from the capturing core's in Scheme and
// AddressPrediction — that is the entire point of warm-start forking —
// but structural parameters (cache geometry, predictor tables) must
// match; component restores verify their own configurations and refuse
// mismatches. A section absent from the snapshot (the warm core did not
// instantiate that component) leaves the new core's component cold.
func NewFromState(cfg Config, prog *program.Program, st *CoreState) (*Core, error) {
	c, err := New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if err := c.restore(st); err != nil {
		return nil, err
	}
	return c, nil
}

// ResetFromState is Reset followed by NewFromState's restore: it puts the
// core into exactly the state NewFromState(cfg, prog, st) builds, keeping
// its storage. A refused Reset leaves the core unchanged; a refused
// restore leaves it partly restored, to be Reset before its next run.
func (c *Core) ResetFromState(cfg Config, prog *program.Program, st *CoreState) error {
	if err := c.Reset(cfg, prog); err != nil {
		return err
	}
	return c.restore(st)
}

// restore overwrites a just-reset core's long-lived state with a captured
// snapshot.
func (c *Core) restore(st *CoreState) error {
	if len(st.CommittedPC) != len(c.prog.Code) {
		return fmt.Errorf("pipeline: checkpoint covers a %d-instruction program, this program has %d",
			len(st.CommittedPC), len(c.prog.Code))
	}
	if st.Hier == nil {
		return fmt.Errorf("pipeline: checkpoint has no memory hierarchy section")
	}
	if err := c.hier.Restore(st.Hier); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if st.Stride != nil {
		if err := c.stride.Restore(st.Stride); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.ctx != nil && st.Context != nil {
		if err := c.ctx.Restore(st.Context); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.bpBim != nil && st.Bimodal != nil {
		if err := c.bpBim.Restore(st.Bimodal); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.bpG != nil && st.GShare != nil {
		if err := c.bpG.Restore(st.GShare); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.vp != nil && st.Value != nil {
		if err := c.vp.Restore(st.Value); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	if c.sset != nil && st.StoreSets != nil {
		if err := c.sset.Restore(st.StoreSets); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	// reset set up the identity rename mapping, so writing architectural
	// values through it is exact. Physical register numbering differs from
	// the capturing core's, which is unobservable: at quiescence only the
	// architecturally mapped registers carry state, and nothing keys off
	// physical register identity.
	for r := 0; r < isa.NumRegs; r++ {
		c.regVal[r] = st.Regs[r]
		if st.TaintRoots[r] != 0 {
			c.taints.SetRoot(r, st.TaintRoots[r])
		}
	}
	c.taints.SetWrites(st.TaintedWrites)
	c.shadows.SetCensus(st.ShadowsOpened, st.ShadowsPeak)
	c.ctrlShadows.SetCensus(st.CtrlShadowsOpened, st.CtrlShadowsPeak)
	c.backing.restoreState(st.Mem)
	copy(c.committedPC, st.CommittedPC)
	c.cycle = st.Cycle
	c.seqCtr = st.SeqCtr
	c.halted = st.Halted
	c.haltFetched = st.HaltFetched
	c.fetchPC = st.FetchPC
	c.fetchHist = st.FetchHist
	c.Stats = st.Stats
	return nil
}
