package pipeline

import (
	"fmt"
	"math/bits"

	"doppelganger/internal/mem"
)

// CheckInvariants validates the machine's structural invariants: rename-map
// consistency, physical-register accounting, queue cross-links, and
// shadow-tracker agreement with the reorder buffer, the issue and load
// queues' wake structures, and, under an undo scheme, a drained rollback
// journal whenever the reorder buffer is empty.
// It returns the first violation found, or nil.
//
// With Config.SelfCheck set, Step runs this every cycle and panics on a
// violation — slow, but it turns silent state corruption into an immediate,
// attributable failure. The fuzz tests run small machines in this mode.
func (c *Core) CheckInvariants() error {
	nPhys := len(c.regVal)

	// Reorder buffer: strictly increasing sequence numbers, well-formed
	// cross-links into the load and store queues.
	var prevSeq uint64
	loads, stores := 0, 0
	inROBDst := make(map[int]bool, c.rob.len())
	shadowCasters := make(map[uint64]bool)
	for i := 0; i < c.rob.len(); i++ {
		u := &c.robEntries[c.rob.at(i)]
		if u.seq <= prevSeq {
			return fmt.Errorf("rob[%d]: seq %d not increasing (prev %d)", i, u.seq, prevSeq)
		}
		prevSeq = u.seq
		if u.dst != noReg {
			if u.dst < 0 || u.dst >= nPhys {
				return fmt.Errorf("rob[%d] seq %d: dst %d out of range", i, u.seq, u.dst)
			}
			if inROBDst[u.dst] {
				return fmt.Errorf("rob[%d] seq %d: dst %d already used by an in-flight uop", i, u.seq, u.dst)
			}
			inROBDst[u.dst] = true
		}
		if u.lqIdx >= 0 {
			loads++
			e := &c.lqEntries[u.lqIdx]
			if !e.valid || e.u != u {
				return fmt.Errorf("rob[%d] seq %d: broken LQ cross-link", i, u.seq)
			}
		}
		if u.sqIdx >= 0 {
			stores++
			e := &c.sqEntries[u.sqIdx]
			if !e.valid || e.u != u {
				return fmt.Errorf("rob[%d] seq %d: broken SQ cross-link", i, u.seq)
			}
		}
		if u.castsShadow && !u.shadowResolved {
			shadowCasters[u.seq] = true
		}
	}
	if loads != c.lq.len() {
		return fmt.Errorf("%d loads in ROB but %d LQ entries", loads, c.lq.len())
	}
	if stores != c.sq.len() {
		return fmt.Errorf("%d stores in ROB but %d SQ entries", stores, c.sq.len())
	}

	// Load/store queues must be in ROB (age) order.
	var lastLoadSeq uint64
	for i := 0; i < c.lq.len(); i++ {
		e := &c.lqEntries[c.lq.at(i)]
		if e.u.seq <= lastLoadSeq {
			return fmt.Errorf("lq[%d]: out of age order", i)
		}
		lastLoadSeq = e.u.seq
	}
	var lastStoreSeq uint64
	for i := 0; i < c.sq.len(); i++ {
		e := &c.sqEntries[c.sq.at(i)]
		if e.u.seq <= lastStoreSeq {
			return fmt.Errorf("sq[%d]: out of age order", i)
		}
		lastStoreSeq = e.u.seq
	}

	// Rename map: in range, pairwise distinct, disjoint from the free list
	// and from in-flight destinations.
	seen := make(map[int]string, nPhys)
	for arch, phys := range c.renameMap {
		if phys < 0 || phys >= nPhys {
			return fmt.Errorf("renameMap[r%d] = %d out of range", arch, phys)
		}
		if who, dup := seen[phys]; dup {
			return fmt.Errorf("renameMap[r%d] and %s share physical register %d", arch, who, phys)
		}
		seen[phys] = fmt.Sprintf("renameMap[r%d]", arch)
	}
	for _, phys := range c.freeList {
		if who, dup := seen[phys]; dup {
			return fmt.Errorf("free list and %s share physical register %d", who, phys)
		}
		seen[phys] = "freeList"
		if inROBDst[phys] {
			return fmt.Errorf("free physical register %d is an in-flight destination", phys)
		}
	}

	// Physical register accounting: every register is exactly one of
	// {current mapping, free, in-flight destination, pending-free oldDst}.
	// oldDst registers are counted implicitly: they are the remainder.
	mapped := len(c.renameMap) + len(c.freeList)
	inflightDsts := len(inROBDst)
	if mapped+inflightDsts > nPhys {
		return fmt.Errorf("register accounting overflow: %d mapped + %d in flight > %d",
			mapped, inflightDsts, nPhys)
	}

	// Shadow tracker agreement: its unresolved set must be exactly the
	// unresolved shadow casters in the ROB.
	if got, want := c.shadows.Outstanding(), len(shadowCasters); got != want {
		return fmt.Errorf("shadow tracker holds %d shadows, ROB has %d unresolved casters", got, want)
	}
	for seq := range shadowCasters {
		// Frontier-based check: the tracker must consider seq+1 speculative.
		if !c.shadows.Speculative(seq + 1) {
			return fmt.Errorf("shadow %d missing from the tracker", seq)
		}
	}

	if err := c.checkWake(); err != nil {
		return err
	}

	// Undo journal: with no instruction in flight, every journaled side
	// effect has either retired (commit) or been rolled back (squash); and
	// the journal never outgrows the in-flight window.
	if c.undoOn {
		if c.rob.empty() && c.hier.UndoPending() > 0 {
			return fmt.Errorf("empty ROB but %d unretired undo-journal records", c.hier.UndoPending())
		}
		if n, max := c.hier.UndoPending(), c.undoBound(); n > max {
			return fmt.Errorf("%d undo-journal records pending, over the in-flight bound %d", n, max)
		}
	}
	return nil
}

// undoBound caps the undo journal's depth by the load-queue window. Only
// loads journal: each performs at most a real and a doppelganger access,
// each firing at most PrefetchDegree prefetches under the load's sequence
// number, and each access logs at most mem.UndoRecordsPerAccess records.
// Records retire from the front in perform order, so a committed load's
// records can outlive it behind an older record of an in-flight load H;
// but they were logged while both sat in the load queue, so every owner
// of a pending record lies within LQSize-1 loads before H or is in flight
// itself: at most 2*LQSize-1 loads. Rejections add one tally per in-flight
// load, however long its stall.
func (c *Core) undoBound() int {
	perLoad := 2 * (1 + c.cfg.PrefetchDegree) * mem.UndoRecordsPerAccess
	return (2*c.cfg.LQSize-1)*perLoad + c.cfg.LQSize
}

// checkWake validates the event-driven queues (wake.go). Issue queue: the
// queued uops number iqLen, and one is in the ready set exactly when its
// issue-time sources are all ready, its pending count matching the sources
// it still waits on. Load queue: see checkLoadWake, judged for the next
// cycle. Branch queue: a branch whose gate was found shut has it shut
// still, and a walk the next cycle skips would find no outcome due.
func (c *Core) checkWake() error {
	queued := 0
	for i := 0; i < c.rob.len(); i++ {
		idx := c.rob.at(i)
		u := &c.robEntries[idx]
		if !u.queued {
			if c.iqReady.has(idx) {
				return fmt.Errorf("rob[%d] seq %d: in the ready set but not queued", i, u.seq)
			}
			continue
		}
		queued++
		if u.issued {
			return fmt.Errorf("rob[%d] seq %d: issued but still queued", i, u.seq)
		}
		if ready := c.ready(u); ready != c.iqReady.has(idx) {
			return fmt.Errorf("rob[%d] seq %d: sources ready=%v but ready-set membership %v",
				i, u.seq, ready, c.iqReady.has(idx))
		}
		waiting := 0
		for k := 0; k < 2; k++ {
			if u.linked&(1<<k) != 0 {
				waiting++
			}
		}
		if int(u.pending) != waiting {
			return fmt.Errorf("rob[%d] seq %d: pending %d but linked on %d sources", i, u.seq, u.pending, waiting)
		}
	}
	if queued != c.iqLen {
		return fmt.Errorf("%d queued uops in the ROB but iqLen %d", queued, c.iqLen)
	}
	if c.halted {
		return nil
	}
	next := c.cycle + 1
	if err := c.checkLoadWake(next, c.timerSlot(next)); err != nil {
		return err
	}
	skip := next < c.brDueAt && c.shadowMoves == c.brSeen
	for _, u := range c.pendingResolve {
		if u.resolved {
			continue
		}
		shut := u.gateShut == c.shadowMoves+1
		if shut && c.canResolveBranch(u) {
			return fmt.Errorf("branch seq %d: parked on a gate that is open", u.seq)
		}
		if skip && !shut && u.outcomeAt <= next {
			return fmt.Errorf("branch seq %d: outcome due at cycle %d but the walk is skipped", u.seq, next)
		}
	}
	return nil
}

// checkLoadWake validates the load queue's wake state for a pass at cycle
// now, whose released timers are due (nil once the pass has released
// them into lqAwake). Every entry the pass would skip has no guard open,
// judged by loadWake's side-effect-free copy of the pass's guards, and is
// parked on what it waits for: its stall matches loadWake's, an
// MSHR-stalled load would still be turned away (mem.Hierarchy.MSHRStall),
// an STT-stalled load's taint root is still speculative, and a load
// waiting on speculation state is in lqSpec. lqMSHR holds exactly the
// MSHR-stalled loads, and no stall is counted past the last pass.
//
// CheckInvariants runs it after each cycle for the next one; the pass
// also runs it first thing under SelfCheck, which catches a wake missed
// by an event earlier in the same cycle (a commit, squash or store
// resolution) before another load can act on the state that event freed.
func (c *Core) checkLoadWake(now uint64, timers bitset) error {
	stalledMSHR := 0
	for i := 0; i < c.lq.len(); i++ {
		idx := c.lq.at(i)
		e := &c.lqEntries[idx]
		if (e.stall == stallMSHR) != c.lqMSHR.has(idx) {
			return fmt.Errorf("lq[%d] seq %d: stall %d but MSHR-parked %v", i, e.u.seq, e.stall, c.lqMSHR.has(idx))
		}
		if e.stall != stallNone && e.stallSince > c.passAt {
			return fmt.Errorf("lq[%d] seq %d: stall counted through cycle %d, after the last pass %d",
				i, e.u.seq, e.stallSince, c.passAt)
		}
		if e.stall == stallMSHR {
			stalledMSHR++
		}
		if c.lqAwake.has(idx) || timers != nil && timers.has(idx) {
			continue
		}
		w := c.loadWake(e, now)
		if w.due {
			return fmt.Errorf("lq[%d] seq %d: parked with work due at cycle %d", i, e.u.seq, now)
		}
		if w.stall != e.stall {
			return fmt.Errorf("lq[%d] seq %d: parked as stall %d but its wait is stall %d", i, e.u.seq, e.stall, w.stall)
		}
		if (w.spec || w.root) && !(c.lqSpec.has(idx) && e.waitSpec == w.spec && e.waitRoot == w.root) {
			return fmt.Errorf("lq[%d] seq %d: waits on speculation state (self %v, root %v) but is not parked on it",
				i, e.u.seq, w.spec, w.root)
		}
		switch e.stall {
		case stallMSHR:
			if _, stalled := c.hier.MSHRStall(now, e.stallLine); !stalled {
				return fmt.Errorf("lq[%d] seq %d: parked on a full MSHR file that would take line %#x at cycle %d",
					i, e.u.seq, e.stallLine, now)
			}
		case stallTaint:
			if !c.taints.RootSpeculative(e.addrTaintRoot) || !c.lqSpec.has(idx) {
				return fmt.Errorf("lq[%d] seq %d: parked on taint root %d, which is no longer speculative",
					i, e.u.seq, e.addrTaintRoot)
			}
		}
	}
	members := 0
	for _, w := range c.lqMSHR {
		members += bits.OnesCount64(w)
	}
	if members != stalledMSHR {
		return fmt.Errorf("%d MSHR-parked slots but %d MSHR-stalled loads", members, stalledMSHR)
	}
	return nil
}
