package pipeline

import (
	"context"
	"errors"
	"fmt"

	"doppelganger/internal/isa"
	"doppelganger/internal/mem"
	"doppelganger/internal/obs"
	"doppelganger/internal/predictor"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
)

// fetched is a decoded instruction waiting in the fetch/decode buffer.
type fetched struct {
	pc         uint64
	in         isa.Instruction
	predTaken  bool
	predTarget uint64
	hist       uint64 // speculative global history at fetch (gshare)
}

// Core is the out-of-order processor. New builds one for a program; Reset
// puts a used core, whatever state its last run left, back into exactly
// the state New builds for another program under any configuration with
// the same storage, keeping that storage, so one core can serve many short
// runs in turn. A Core is not safe for concurrent use.
type Core struct {
	cfg  Config
	prog *program.Program

	hier   *mem.Hierarchy
	bp     predictor.BranchPredictor
	bim    *predictor.Bimodal // the configured direction predictor (Reset restores it as bp)
	bpBim  *predictor.Bimodal // non-nil when bp is the bimodal (devirtualized)
	bpG    *predictor.GShare  // non-nil when BranchGShare is selected
	stride *predictor.Stride
	ctx    *predictor.Context   // non-nil for context/hybrid address prediction
	vp     *predictor.Value     // non-nil when value prediction is enabled
	sset   *predictor.StoreSets // non-nil when memory dependence prediction is on
	// kept holds the optional tables above, each built the first time a
	// configuration selects it and kept while later ones do not, so a core
	// reset between configurations builds each table once.
	kept struct {
		gshare *predictor.GShare
		ctx    *predictor.Context
		vp     *predictor.Value
		sset   *predictor.StoreSets
	}
	// shadows tracks all shadow casters; ctrlShadows tracks only branches
	// (the Spectre taint model's visibility definition).
	shadows     secure.ShadowTracker
	ctrlShadows secure.ShadowTracker
	taints      *secure.TaintTracker

	cycle  uint64
	seqCtr uint64
	halted bool

	// Physical register file: 32 architectural + ROBSize rename registers.
	regVal    []int64
	regReady  []bool
	renameMap [isa.NumRegs]int
	freeList  []int

	rob        ring
	robEntries []uop

	// The issue queue is event-driven (see DESIGN.md, "Wake, don't
	// poll"): iqLen counts the queued uops, iqReady holds the ROB slots of
	// those whose sources are all ready, and regWaiters heads, per
	// physical register, the list of queued uops waiting on it (a link is
	// ROB slot*2 + source index; -1 ends a list). markReady walks a list
	// when its register becomes ready.
	iqLen      int
	iqReady    bitset
	regWaiters []int32

	inflightExec   []*uop // ALU executions awaiting completion
	pendingResolve []*uop // branches awaiting resolution

	lq        ring
	lqEntries []lqEntry
	sq        ring
	sqEntries []sqEntry

	// The load queue visits only the entries that can have work this
	// cycle (see wake.go): lqAwake holds the LQ slots to visit in the next
	// pass; lqTimers is a timing wheel of lqWheelSlots slot sets laid end
	// to end, the one for cycle t released into lqAwake at t's pass;
	// lqSpec holds slots parked until a shadow frontier passes them or
	// their taint root, lqMSHR those parked on a full MSHR file. passAt is
	// the cycle of the last pass, the last one a parked load's stall
	// counter can owe.
	lqAwake  bitset
	lqSpec   bitset
	lqMSHR   bitset
	lqTimers bitset
	passAt   uint64

	// The branch queue is walked only when a pending outcome falls due
	// (brDueAt) or a shadow frontier has moved since the last walk
	// (shadowMoves counts the moves, brSeen the count the last walk
	// started from): until then every gate it found shut stays shut.
	shadowMoves uint64
	brSeen      uint64
	brDueAt     uint64

	// backing is committed architectural memory.
	backing *memImage

	fetchPC     uint64
	fetchBuf    []fetched
	haltFetched bool
	// fetchStalled suppresses fetch entirely; Drain uses it to let the
	// in-flight window complete without admitting new instructions.
	fetchStalled bool
	// fetchHist is the speculative global branch history (gshare only),
	// repaired on every squash.
	fetchHist uint64

	// inflight counts dispatched-but-not-committed dynamic instances per
	// load PC, for the predictor's address-prediction mode; committedPC
	// counts total committed instances per PC so late predictions (value
	// prediction fires at delayed-miss time, not dispatch) can rebase
	// their occurrence numbers. Both are indexed by PC: loads only ever
	// dispatch from in-range PCs (out-of-range fetch reads as Nop).
	inflight    []int32
	committedPC []uint64

	prefetchBuf []uint64

	// Observability: attached trace sink (tracing caches sink != nil for the
	// hot path), optional cycle window, and cached metric handles. When the
	// sink supports batch delivery, events accumulate in traceBuf and are
	// handed over in chunks (and on every Run exit).
	sink           obs.TraceSink
	batchSink      obs.BatchSink
	traceBuf       []obs.Event
	tracing        bool
	winOn          bool
	winFrom, winTo uint64
	met            *coreMetrics

	// Observation trace capture (observe.go): rolling digests of committed
	// and transient-inclusive address/control traces for the contract
	// oracle. Off unless EnableObsTraces is called.
	obsOn       bool
	obsAddrSeq  uint64
	obsCtrlSeq  uint64
	obsAddrSpec uint64
	obsCtrlSpec uint64

	// Undo-scheme state (secure.Cleanup): undoOn caches the scheme
	// predicate for the hot path; specLog buffers speculative-trace folds
	// of tagged accesses in perform order until their instruction commits
	// (fold) or squashes (drop), because under an undo scheme a squashed
	// access's hierarchy footprint is erased and must not appear in the
	// observable address trace either.
	undoOn  bool
	specLog []specAcc

	// Stats accumulates raw event counts for the run.
	Stats Stats
}

// New builds a core for the given program. The program is validated; the
// configuration must be valid too.
func New(cfg Config, prog *program.Program) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	c := newCore(cfg)
	c.reset(cfg, prog)
	return c, nil
}

// Reset puts the core into exactly the state New(cfg, prog) builds:
// whatever the last run left (a halt, a cycle limit, an abandoned squash)
// is cleared, the trace sink, metrics, observation traces and cycle
// window are detached, and a branch predictor SetBranchPredictor installed
// is replaced by the configured one. Storage is kept: caches, memory
// image, queues and tables are cleared in place. cfg may differ from the
// core's configuration in anything but the fields that size storage
// (Config.storage: widths, queue sizes, the memory hierarchy, the stride
// and bimodal tables); scheme, address and value prediction, predictor
// kinds, mutation, latencies and prefetching are taken from cfg as New
// takes them. The configuration and program are validated first; on
// error, a configuration with other storage included, the core is
// unchanged.
func (c *Core) Reset(cfg Config, prog *program.Program) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.storage() != c.cfg.storage() {
		return errors.New("pipeline: cannot reset a core to a configuration that sizes its storage differently (widths, queue sizes, memory hierarchy, stride or bimodal table)")
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	c.reset(cfg, prog)
	return nil
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Outgrown reports whether the core's storage grew past what a short run
// (a leakage gadget) fills: a cache past its second segment, or committed
// memory past one slab of pages. sim.Runner keeps only cores that did not,
// so an idle core holds at most a short run's footprint.
func (c *Core) Outgrown() bool {
	return c.hier.Outgrown() || len(c.backing.pages)+len(c.backing.free) > slabPages
}

// newCore allocates every structure of a core that its configuration's
// storage fields size (Config.storage); reset then gives it its initial
// state and everything the rest of the configuration selects. Every
// structure the cycle loop appends to is pre-sized, so steady-state
// simulation never grows a slice: queue contents are bounded by the
// structure sizes (anything in flight occupies a ROB slot).
func newCore(cfg Config) *Core {
	nPhys := isa.NumRegs + cfg.ROBSize
	c := &Core{
		cfg:            cfg,
		hier:           mem.NewHierarchy(cfg.Memory),
		bim:            predictor.NewBimodal(cfg.Branch),
		stride:         predictor.NewStride(cfg.Stride),
		regVal:         make([]int64, nPhys),
		regReady:       make([]bool, nPhys),
		regWaiters:     make([]int32, nPhys),
		freeList:       make([]int, 0, cfg.ROBSize),
		robEntries:     make([]uop, cfg.ROBSize),
		lqEntries:      make([]lqEntry, cfg.LQSize),
		sqEntries:      make([]sqEntry, cfg.SQSize),
		backing:        newMemImage(),
		inflightExec:   make([]*uop, 0, cfg.ROBSize),
		pendingResolve: make([]*uop, 0, cfg.ROBSize),
		fetchBuf:       make([]fetched, 0, 2*cfg.DecodeWidth),
		specLog:        make([]specAcc, 0, cfg.ROBSize),
	}
	// One allocation holds every wake set: the ready set, then the load
	// queue's awake set, shadow- and MSHR-parked sets and timing wheel.
	iqw, lqw := bitsetWords(cfg.ROBSize), bitsetWords(cfg.LQSize)
	words := make(bitset, iqw+(3+lqWheelSlots)*lqw)
	c.iqReady, words = words[:iqw:iqw], words[iqw:]
	c.lqAwake, words = words[:lqw:lqw], words[lqw:]
	c.lqSpec, words = words[:lqw:lqw], words[lqw:]
	c.lqMSHR, c.lqTimers = words[:lqw:lqw], words[lqw:]
	c.shadows.Reserve(cfg.ROBSize)
	c.ctrlShadows.Reserve(cfg.ROBSize)
	c.taints = secure.NewTaintTracker(nPhys, &c.shadows)
	return c
}

// reset gives the core the initial state for prog under cfg, whatever
// state and configuration it was in: New's initialiser for a fresh core
// and Reset's for a used one, so the two cannot drift apart. cfg sizes
// storage as the core's configuration does. It first makes every choice
// that depends on the rest of cfg: the taint tracker's shadow set, the
// undo journal and its options, the optional predictor tables and the
// prefetch buffer's capacity. It then clears only what a run can have
// changed, and of that only what the next run could tell apart. ROB,
// load- and store-queue entries are not cleared: emptying the rings is
// enough, because dispatch writes every entry it takes whole. A rename
// register's value and readiness are dead until dispatch allocates it,
// which marks it not ready. The load queue's awake, shadow-parked and timer sets keep
// their members: a member only earns its slot an early visit, which is
// always safe, and a squash leaves such members behind too. The branch
// queue's walk bookkeeping (shadowMoves, brSeen, brDueAt) is kept for the
// same reason: a stale value only earns an extra walk, since brDueAt is
// lowered to every issued branch's outcome cycle. The prefetch buffer is
// scratch that every use truncates first.
func (c *Core) reset(cfg Config, prog *program.Program) {
	c.cfg, c.prog = cfg, prog
	if cfg.Scheme.ControlOnlyTaint() {
		c.taints.Bind(&c.ctrlShadows)
	} else {
		c.taints.Bind(&c.shadows)
	}
	c.hier.Reset()
	c.undoOn = cfg.Scheme.UndoesSpeculation()
	if c.undoOn {
		// CleanupSpec-style undo: the hierarchy journals every tagged
		// speculative side effect; squashes roll the journal back (see
		// squashAfter) and commit retires it (see commit). The planted
		// weakenings selectively disable parts of the rollback.
		c.hier.EnableUndo(mem.UndoOptions{
			SkipLRUUndo: cfg.Mutation.SkipsLRUUndo(),
			DropEvicted: cfg.Mutation.DropsEvictedLines(),
		})
	} else {
		c.hier.DisableUndo()
	}
	if cap(c.prefetchBuf) < cfg.PrefetchDegree {
		c.prefetchBuf = make([]uint64, 0, cfg.PrefetchDegree)
	}
	c.bpG = optional(cfg.BranchPredictorKind == BranchGShare, &c.kept.gshare, cfg.GShare, predictor.NewGShare)
	c.ctx = optional(cfg.AddressPredictorKind != PredictorStride, &c.kept.ctx, cfg.Context, predictor.NewContext)
	c.vp = optional(cfg.ValuePrediction, &c.kept.vp, cfg.Value, predictor.NewValue)
	c.sset = optional(cfg.MemDepPrediction, &c.kept.sset, cfg.StoreSets, predictor.NewStoreSets)

	c.bim.Reset()
	c.bp, c.bpBim = c.bim, c.bim
	c.stride.Reset()
	if c.bpG != nil {
		c.bpG.Reset()
	}
	if c.ctx != nil {
		c.ctx.Reset()
	}
	if c.vp != nil {
		c.vp.Reset()
	}
	if c.sset != nil {
		c.sset.Reset()
	}
	c.shadows.Reset()
	c.ctrlShadows.Reset()
	c.taints.Reset()

	c.cycle, c.seqCtr, c.halted = 0, 0, false
	for r := 0; r < isa.NumRegs; r++ {
		c.renameMap[r] = r
		c.regVal[r] = prog.InitRegs[r]
		c.regReady[r] = true
	}
	c.freeList = c.freeList[:0]
	for p := len(c.regVal) - 1; p >= isa.NumRegs; p-- {
		c.freeList = append(c.freeList, p)
	}
	for p := range c.regWaiters {
		c.regWaiters[p] = -1
	}

	c.rob = newRing(cfg.ROBSize)
	c.lq = newRing(cfg.LQSize)
	c.sq = newRing(cfg.SQSize)
	c.iqLen = 0
	clear(c.iqReady)
	clear(c.lqMSHR)
	c.passAt = 0
	c.inflightExec = c.inflightExec[:0]
	c.pendingResolve = c.pendingResolve[:0]

	c.backing.reset()
	for a, v := range prog.InitMem {
		c.backing.store(program.AlignAddr(a), v)
	}
	c.fetchPC = prog.Entry
	c.fetchBuf = c.fetchBuf[:0]
	c.haltFetched = false
	c.fetchStalled = false
	c.fetchHist = 0
	c.inflight = zeroed(c.inflight, len(prog.Code))
	c.committedPC = zeroed(c.committedPC, len(prog.Code))

	c.SetTraceSink(nil)
	c.ClearCycleWindow()
	c.SetMetrics(nil)
	c.obsOn = false
	c.obsAddrSeq, c.obsCtrlSeq, c.obsAddrSpec, c.obsCtrlSpec = 0, 0, 0, 0
	c.specLog = c.specLog[:0]
	c.Stats = Stats{}
}

// optional returns the predictor table a configuration selects when on,
// and nil when it is off. The table is *kept, built with cfg when there is
// none yet or the kept one was built for another table configuration, and
// kept from then on.
func optional[T interface {
	comparable
	Config() C
}, C comparable](on bool, kept *T, cfg C, build func(C) T) T {
	var none T
	if !on {
		return none
	}
	if *kept == none || (*kept).Config() != cfg {
		*kept = build(cfg)
	}
	return *kept
}

// zeroed returns s resized to n elements, all zero, reusing its storage
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Hierarchy exposes the memory system (for statistics and tests).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Stride exposes the shared prefetcher/address-predictor table (for
// statistics and the security tests that fingerprint its state).
func (c *Core) Stride() *predictor.Stride { return c.stride }

// ContextPredictor exposes the Markov address predictor, or nil when the
// stride-only configuration is active.
func (c *Core) ContextPredictor() *predictor.Context { return c.ctx }

// apPredict runs address-prediction mode across the configured tables.
func (c *Core) apPredict(pc uint64, occurrence int) (uint64, bool) {
	switch c.cfg.AddressPredictorKind {
	case PredictorContext:
		if c.ctx == nil {
			return 0, false
		}
		return c.ctx.Predict(pc, occurrence)
	case PredictorHybrid:
		if addr, ok := c.stride.Predict(pc, occurrence); ok {
			return addr, ok
		}
		if c.ctx == nil {
			return 0, false
		}
		return c.ctx.Predict(pc, occurrence)
	default:
		return c.stride.Predict(pc, occurrence)
	}
}

// SetBranchPredictor replaces the branch direction predictor. It must be
// called before Run; tests use static predictors for deterministic
// misprediction patterns.
func (c *Core) SetBranchPredictor(bp predictor.BranchPredictor) {
	c.bp = bp
	c.bpBim, _ = bp.(*predictor.Bimodal)
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted reports whether the program has committed its Halt.
func (c *Core) Halted() bool { return c.halted }

// Run simulates until the program halts, maxInsts instructions have
// committed (0 = unlimited), or maxCycles cycles have elapsed. It returns
// an error only if the cycle limit was hit without halting, which indicates
// a deadlocked pipeline or a runaway program. It is RunContext with a
// context that is never cancelled.
func (c *Core) Run(maxInsts, maxCycles uint64) error {
	return c.RunContext(context.Background(), maxInsts, maxCycles)
}

// stepChunk is how many cycles RunContext simulates between checks of a
// cancellable context.
const stepChunk = 1 << 16

// RunContext is Run that also stops, returning ctx.Err(), once ctx is
// cancelled; the context is checked before the first cycle and then every
// stepChunk cycles. Before every cycle it steps, the core skips the quiet
// cycles ahead of it (see skip.go), never past maxCycles. On every
// return, parked loads' stall counters are settled and buffered trace
// events and metric observations are delivered, so counters, sinks and
// registries are complete even for a failed or cancelled run.
func (c *Core) RunContext(ctx context.Context, maxInsts, maxCycles uint64) error {
	defer c.flushObs()
	defer c.SettleStalls()
	limit := maxCycles
	if limit == 0 {
		limit = ^uint64(0)
	}
	done := ctx.Done()
	poll := uint64(0) // the cycle at or after which ctx is next checked
	if done == nil {
		poll = ^uint64(0)
	}
	var sc skipCheck
	for !c.halted {
		if maxInsts > 0 && c.Stats.Committed >= maxInsts {
			return nil
		}
		c.skipQuiet(limit, &sc)
		if c.cycle >= limit {
			return fmt.Errorf("pipeline: cycle limit %d reached at %d committed instructions (possible deadlock)",
				maxCycles, c.Stats.Committed)
		}
		if c.cycle >= poll {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			poll = c.cycle + stepChunk
		}
		c.Step()
	}
	return nil
}

// Step advances the machine by one cycle.
func (c *Core) Step() {
	c.cycle++
	c.commit()
	if c.halted {
		// The halting cycle is the one where the machine drains, so it is
		// checked too: a leftover undo-journal record only shows here.
		if c.cfg.SelfCheck {
			c.mustCheckInvariants()
		}
		return
	}
	c.writeback()
	c.resolveBranches()
	c.storeQueuePass()
	c.loadQueuePass()
	c.issue()
	c.dispatch()
	c.fetch()
	if c.cfg.SelfCheck {
		c.mustCheckInvariants()
	}
	c.Stats.Cycles = c.cycle
	if c.met != nil {
		c.met.robOcc.Observe(uint64(c.rob.len()))
		c.met.iqOcc.Observe(uint64(c.iqLen))
	}
}

// mustCheckInvariants runs CheckInvariants (Config.SelfCheck mode) and
// panics on a violation.
func (c *Core) mustCheckInvariants() {
	if err := c.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("pipeline: invariant violated at cycle %d: %v", c.cycle, err))
	}
}

// ArchRegs returns the current architectural register values (the committed
// rename mapping).
func (c *Core) ArchRegs() [isa.NumRegs]int64 {
	var regs [isa.NumRegs]int64
	for r := 0; r < isa.NumRegs; r++ {
		regs[r] = c.regVal[c.renameMap[r]]
	}
	return regs
}

// ArchState assembles the committed architectural state for comparison with
// the reference interpreter. Callers must only rely on it when the core is
// quiescent (halted), since speculative rename mappings are not rolled back
// here.
func (c *Core) ArchState() *program.ArchState {
	st := &program.ArchState{
		Mem:    c.backing.toMap(),
		Halted: c.halted,
		Insts:  c.Stats.Committed,
		Loads:  c.Stats.CommittedLoads,
		Stores: c.Stats.CommittedStores,
	}
	st.Regs = c.ArchRegs()
	return st
}

// ReadMem returns the committed value of the memory word at addr.
func (c *Core) ReadMem(addr uint64) int64 { return c.backing.load(program.AlignAddr(addr)) }

// InjectInvalidation models an external coherence invalidation reaching the
// core (§4.5): the line is removed from the caches and the load queue is
// snooped. Live doppelganger entries are marked rather than squashed; the
// mark takes effect at propagation only if the prediction verifies.
// Returns whether any LQ entry matched.
func (c *Core) InjectInvalidation(addr uint64) bool {
	c.hier.Invalidate(addr)
	la := mem.LineAddr(addr)
	matched := false
	for i := 0; i < c.lq.len(); i++ {
		e := &c.lqEntries[c.lq.at(i)]
		if !e.valid {
			continue
		}
		if a, ok := e.matchAddr(); ok && mem.LineAddr(a) == la {
			e.invalidated = true
			matched = true
		}
	}
	return matched
}

// alloc pops a free physical register; the free list is sized so this can
// never fail while the ROB has space.
func (c *Core) alloc() int {
	n := len(c.freeList)
	if n == 0 {
		panic("pipeline: physical register file exhausted")
	}
	p := c.freeList[n-1]
	c.freeList = c.freeList[:n-1]
	return p
}

func (c *Core) free(p int) {
	c.freeList = append(c.freeList, p)
	c.taints.Clear(p)
}

// squashAfter removes every uop younger than survivorSeq, restores the
// rename map and branch history, and redirects fetch to newPC.
func (c *Core) squashAfter(survivorSeq, newPC, newHist uint64) {
	for !c.rob.empty() {
		idx := c.rob.tailIdx()
		u := &c.robEntries[idx]
		if u.seq <= survivorSeq {
			break
		}
		if u.queued {
			c.dequeue(u, idx)
		}
		if u.dst != noReg {
			c.renameMap[u.in.Dst] = u.oldDst
			c.regReady[u.dst] = false
			c.free(u.dst)
		}
		if u.lqIdx >= 0 {
			if got := c.lq.tailIdx(); got != u.lqIdx {
				panic(fmt.Sprintf("pipeline: LQ squash mismatch: tail %d, uop %d", got, u.lqIdx))
			}
			if e := &c.lqEntries[u.lqIdx]; e.stall != stallNone {
				// Squashed before its turn this cycle: its stall last
				// ticked the cycle before.
				c.settleStall(e, c.cycle-1)
				c.lqMSHR.clear(u.lqIdx)
			}
			c.lqEntries[u.lqIdx] = lqEntry{}
			c.lq.popTail()
			c.inflight[u.pc]--
		}
		if u.sqIdx >= 0 {
			if got := c.sq.tailIdx(); got != u.sqIdx {
				panic(fmt.Sprintf("pipeline: SQ squash mismatch: tail %d, uop %d", got, u.sqIdx))
			}
			c.sqEntries[u.sqIdx] = sqEntry{}
			c.sq.popTail()
		}
		c.rob.popTail()
		c.Stats.Squashed++
	}
	c.shadows.SquashAfter(survivorSeq)
	c.ctrlShadows.SquashAfter(survivorSeq)
	if c.undoOn || c.sset != nil {
		// A rollback frees MSHRs and reinstates L1 lines, and a
		// memory-order violation reassigns store sets: every MSHR-stalled
		// survivor takes another look.
		for i, w := range c.lqMSHR {
			c.lqAwake[i] |= w
		}
	}
	if c.undoOn {
		// Undo scheme: erase the squashed instructions' hierarchy footprint
		// (fills, recency, counters, MSHRs) and drop their buffered
		// speculative-trace folds — retrospective protection happens here.
		c.hier.RollbackAfter(survivorSeq)
		c.dropSpecAfter(survivorSeq)
	}
	c.fetchHist = newHist
	c.inflightExec = filterYounger(c.inflightExec, survivorSeq)
	c.pendingResolve = filterYounger(c.pendingResolve, survivorSeq)
	c.fetchBuf = c.fetchBuf[:0]
	c.fetchPC = newPC
	c.haltFetched = false
}

func filterYounger(list []*uop, survivorSeq uint64) []*uop {
	out := list[:0]
	for _, u := range list {
		if u.seq <= survivorSeq {
			out = append(out, u)
		}
	}
	return out
}

// speculative reports whether the instruction is under any shadow.
func (c *Core) speculative(seq uint64) bool { return c.shadows.Speculative(seq) }
