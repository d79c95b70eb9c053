package pipeline

import (
	"fmt"

	"doppelganger/internal/isa"
	"doppelganger/internal/mem"
)

// Wake, don't poll: the issue queue, the load queue and the branch queue
// visit only the entries that can have work this cycle. Visiting an entry
// early is always safe — every stage's guards are re-evaluated on a visit,
// and a visit with no open guard changes nothing — so the wake rules below
// only have to be conservative: an entry may be skipped only while none of
// its guards can open. CheckInvariants (Config.SelfCheck) enforces exactly
// that for all three queues.
//
// Two waits tick a stall counter on every cycle they last: a load whose
// access a full MSHR file turns away (mem.Hierarchy.RejectedMSHR) and a
// load whose real access STT holds behind a speculative taint root
// (Stats.STTTaintStalls). Such a load parks like any other, remembering
// in stallSince the last cycle its counter covers, and the cycles it
// sat out are credited as one interval (settleStall) when it is next
// visited, when it is squashed, and when a run returns (SettleStalls).
// Every parked cycle is one polling would have ticked, with one exception
// that parking accounts for as it happens: a cycle in which older loads
// used up the load ports before an MSHR-stalled load's turn, so its access
// was never tried (portsExhausted). A retry also swept the MSHR file of
// completed fills, which no outcome depends on but a checkpoint's image
// of the file does; the pass runs that sweep where the first retry would
// have (sweepForParked).
//
// Still polled, every cycle until it moves on: a load whose progress hangs
// on state no wake covers — a pending store's data, an older store-set
// member's unresolved address (which also ticks MemDepStalls per visit), a
// free load port, DoM+VP's value prediction. Each is a short wait or a
// configuration off by default; see loadWake.

// lqWheelSlots is the load-queue timing wheel's size in cycles (a power of
// two). A timer further out lands in the slot of an earlier cycle, whose
// visit re-judges the entry and parks it again (an MSHR-stalled load's
// early visit retries its access, exactly as polling would that cycle).
const lqWheelSlots = 128

// enqueue inserts a dispatched uop into the issue queue: it joins the
// ready set at once if its issue-time sources are ready, and otherwise
// waits on each outstanding one.
func (c *Core) enqueue(u *uop, idx int) {
	u.queued = true
	c.iqLen++
	n := u.nsrc
	if u.kind == isa.KindLoad || u.kind == isa.KindStore {
		n = 1 // address generation needs only the base register
	}
	for k := 0; k < n; k++ {
		p := u.src[k]
		if c.regReady[p] {
			continue
		}
		u.waitNext[k] = c.regWaiters[p]
		c.regWaiters[p] = int32(idx<<1 | k)
		u.linked |= 1 << k
		u.pending++
	}
	if u.pending == 0 {
		c.iqReady.set(idx)
	}
}

// markReady makes physical register p's value visible to dependents and
// wakes the queued uops waiting on it.
func (c *Core) markReady(p int) {
	c.regReady[p] = true
	for l := c.regWaiters[p]; l >= 0; {
		idx, k := int(l>>1), l&1
		u := &c.robEntries[idx]
		l = u.waitNext[k]
		u.linked &^= 1 << k
		if u.pending--; u.pending == 0 {
			c.iqReady.set(idx)
		}
	}
	c.regWaiters[p] = -1
}

// dequeue removes a squashed uop from the issue queue. Squash pops the ROB
// youngest first and waiter lists are pushed in dispatch order, so each of
// the uop's links is the head of its list by the time it is removed.
func (c *Core) dequeue(u *uop, idx int) {
	u.queued = false
	c.iqLen--
	c.iqReady.clear(idx)
	for k := 1; k >= 0; k-- {
		if u.linked&(1<<k) == 0 {
			continue
		}
		p := u.src[k]
		if c.regWaiters[p] != int32(idx<<1|k) {
			panic(fmt.Sprintf("pipeline: squashed uop %d is not the head of register %d's waiters", u.seq, p))
		}
		c.regWaiters[p] = u.waitNext[k]
	}
	u.linked = 0
}

// stallKind names the stall counter a parked load's wait ticks.
type stallKind uint8

const (
	stallNone stallKind = iota
	// stallMSHR: the load's next access, real or doppelganger, would be
	// turned away by a full MSHR file (RejectedMSHR).
	stallMSHR
	// stallTaint: STT holds the load's real access behind a speculative
	// taint root (STTTaintStalls).
	stallTaint
)

// resolveShadow lifts the shadow cast by seq from the trackers named, and
// wakes what waits on speculation state if it was the oldest unresolved
// shadow of either: only then can a load or branch become non-speculative,
// or a taint root stop being live. Of the loads parked on speculation
// state, only those whose own gate has opened are woken. (Shadows are
// added younger than every in-flight load and branch, and a squash
// removes only shadows younger than every survivor, so neither ever moves
// a gate.)
func (c *Core) resolveShadow(seq uint64, ctrl bool) {
	moved := false
	if f, ok := c.shadows.Frontier(); ok && f == seq {
		moved = true
	}
	c.shadows.Resolve(seq)
	if ctrl {
		if f, ok := c.ctrlShadows.Frontier(); ok && f == seq {
			moved = true
		}
		c.ctrlShadows.Resolve(seq)
	}
	if !moved {
		return
	}
	c.shadowMoves++
	for o := c.lqSpec.nextIn(&c.lq, 0); o < c.lq.len(); o = c.lqSpec.nextIn(&c.lq, o+1) {
		i := c.lq.at(o)
		e := &c.lqEntries[i]
		if e.waitSpec && !c.speculative(e.u.seq) || e.waitRoot && !c.taints.RootSpeculative(e.addrTaintRoot) {
			c.lqAwake.set(i)
			c.lqSpec.clear(i)
		}
	}
}

// A load leaving the queue keeps whatever wake bits it had, bar lqMSHR:
// the walks cover only occupied slots, a slot's next load starts awake,
// and its first park rewrites its lqSpec bit, so a stale bit costs at most
// one visit with nothing to do. A stale lqMSHR bit would instead charge
// the next load for stalls it never had, so squashAfter clears it.

// releaseTimers moves the load-queue entries whose timers fall due this
// cycle into the awake set.
func (c *Core) releaseTimers() {
	slot := c.timerSlot(c.cycle)
	for i, w := range slot {
		c.lqAwake[i] |= w
		slot[i] = 0
	}
}

// timerSlot returns the timing wheel's slot set for cycle t.
func (c *Core) timerSlot(t uint64) bitset {
	w := len(c.lqAwake)
	i := int(t&(lqWheelSlots-1)) * w
	return c.lqTimers[i : i+w]
}

// park decides, after LQ slot i's visit, when it next needs one: at the
// next pass if it has work due then, else at its earliest timer, when a
// shadow frontier passes the load or its address's taint root, and, for
// an MSHR stall, when a fill for its line lands (access) or a squash rolls
// the hierarchy back (squashAfter). An entry with none of these waits for
// an event to wake it: its AGU issue, a store forwarding into it or
// resolving its address, or reaching the ROB head. (An invalidation snoop
// needs no wake: its mark is read only once the release rule already lets
// the value propagate.)
func (c *Core) park(i int) {
	e := &c.lqEntries[i]
	w := c.loadWake(e, c.cycle+1)
	c.lqSpec.clear(i)
	if w.due {
		return
	}
	c.lqAwake.clear(i)
	if w.at != 0 {
		c.timerSlot(w.at).set(i)
	}
	e.waitSpec, e.waitRoot = w.spec, w.root
	if w.spec || w.root {
		c.lqSpec.set(i)
	}
	if w.stall != stallNone {
		e.stall, e.stallLine, e.stallSince = w.stall, w.line, c.cycle
		if w.stall == stallMSHR {
			c.lqMSHR.set(i)
		}
	}
}

// unpark ends LQ slot i's stall before its visit at this cycle, crediting
// the cycles it sat out.
func (c *Core) unpark(i int) {
	c.settleStall(&c.lqEntries[i], c.cycle-1)
	c.lqEntries[i].stall = stallNone
	c.lqMSHR.clear(i)
}

// settleStall credits a parked load's stall counter with the cycles after
// stallSince up to and including through, plus those already owed.
func (c *Core) settleStall(e *lqEntry, through uint64) {
	n := e.stallOwed
	if through > e.stallSince {
		n += through - e.stallSince
		e.stallSince = through
	}
	e.stallOwed = 0
	if n == 0 {
		return
	}
	switch e.stall {
	case stallMSHR:
		var seq uint64
		if c.undoOn {
			seq = e.u.seq // rolled back with the load's own rejections
		}
		c.hier.CountRejected(n, seq)
	case stallTaint:
		c.Stats.STTTaintStalls += n
	}
}

// SettleStalls credits the stall counters of the loads parked now with
// every cycle simulated so far, so Stats and the hierarchy's counters read
// exact. Run does this on return; a caller driving Step directly calls it
// before reading them.
func (c *Core) SettleStalls() {
	for off := 0; off < c.lq.len(); off++ {
		if e := &c.lqEntries[c.lq.at(off)]; e.stall != stallNone {
			c.settleStall(e, c.passAt)
		}
	}
}

// portsExhausted records that the load at age offset off took this
// cycle's last load port: the MSHR-stalled loads parked behind it would not
// have reached the hierarchy this cycle, so the cycle is accounted for them
// without a tick. Younger loads that are awake are still to be visited and
// find the ports gone themselves.
func (c *Core) portsExhausted(off int) {
	for o := c.lqMSHR.nextIn(&c.lq, off+1); o < c.lq.len(); o = c.lqMSHR.nextIn(&c.lq, o+1) {
		i := c.lq.at(o)
		if c.lqAwake.has(i) {
			continue
		}
		e := &c.lqEntries[i]
		if c.cycle-1 > e.stallSince {
			e.stallOwed += c.cycle - 1 - e.stallSince
		}
		e.stallSince = c.cycle
	}
}

// sweepForParked runs, before the pass visits age offset off, the
// MSHR-file sweep (mem.Hierarchy.ExpireFills) that the retry of an
// MSHR-stalled load parked ahead of off would have run there under
// polling: one parked before this cycle, not woken since, and not passed
// over for want of a load port. It reports whether it swept; a second
// sweep in the same cycle changes nothing.
func (c *Core) sweepForParked(off int) bool {
	for o := c.lqMSHR.nextIn(&c.lq, 0); o < off; o = c.lqMSHR.nextIn(&c.lq, o+1) {
		i := c.lq.at(o)
		if !c.lqAwake.has(i) && c.lqEntries[i].stallSince < c.cycle {
			c.hier.ExpireFills(c.cycle)
			return true
		}
	}
	return false
}

// access performs a memory request at this cycle and wakes the loads
// parked on a full MSHR file that its fill lets through: one that took the
// miss path allocated an MSHR (or, for a committed store, filled the L1)
// for its line, so a parked access to that line now merges or hits.
func (c *Core) access(addr uint64, class mem.Class, opts mem.AccessOptions) mem.AccessResult {
	res := c.hier.Access(c.cycle, addr, class, opts)
	if !res.Rejected && !res.DelayedMiss && !res.Merged && res.Level != mem.LevelL1 && !c.lqMSHR.empty() {
		la := mem.LineAddr(addr)
		for o := c.lqMSHR.nextIn(&c.lq, 0); o < c.lq.len(); o = c.lqMSHR.nextIn(&c.lq, o+1) {
			if i := c.lq.at(o); c.lqEntries[i].stallLine == la {
				c.lqAwake.set(i)
			}
		}
	}
	return res
}

// wakeForwarded wakes the MSHR-stalled loads younger than store s whose
// address it has just resolved to: their real access now forwards from s
// instead of reaching the hierarchy.
func (c *Core) wakeForwarded(s *sqEntry) {
	for o := c.lqMSHR.nextIn(&c.lq, 0); o < c.lq.len(); o = c.lqMSHR.nextIn(&c.lq, o+1) {
		i := c.lq.at(o)
		if e := &c.lqEntries[i]; e.u.seq > s.u.seq && e.addrValid && e.addr == s.addr {
			c.lqAwake.set(i)
		}
	}
}

// wakeup is loadWake's verdict on a load-queue entry: due means a visit
// at the judged cycle would act; otherwise at is the earliest cycle a
// timer guard opens (0 = none), spec and root report a guard that opens
// only once the load itself, or its address's taint root, is no longer
// speculative, and stall names the counter the wait ticks, with line the
// line an MSHR stall waits to see filled.
type wakeup struct {
	due   bool
	at    uint64
	spec  bool
	root  bool
	stall stallKind
	line  uint64
}

// timer notes a guard that opens at cycle t and reports whether it is
// open at now.
func (w *wakeup) timer(t, now uint64) bool {
	if now >= t {
		return true
	}
	if w.at == 0 || t < w.at {
		w.at = t
	}
	return false
}

// loadWake judges, from side-effect-free copies of loadQueuePass's
// guards, when the entry next has work; see wakeup. The strict (at-head)
// release rule needs no wake of its own: commit wakes the load that
// reaches the head.
//
// A guard whose visit would only tick a stall counter is not due: a real
// or doppelganger access a full MSHR file would turn away (judged by
// mem.Hierarchy.MSHRStall, which also names the cycle a fill completes)
// and STT's tainted real access. Still polled (always due), because
// their progress hangs on state outside the entry and their counters stay
// per visit: a load awaiting a pending store's data or an older store-set
// member's address (MemDepStalls), one whose access waits only for a free
// load port, and DoM+VP's value prediction.
func (c *Core) loadWake(e *lqEntry, now uint64) (w wakeup) {
	u := e.u
	if u.propagated && e.valueValid && e.pendingStoreSeq == 0 {
		return w // final: waits only for commit
	}
	due := wakeup{due: true}
	if e.pendingStoreSeq != 0 {
		return due
	}
	if e.addrPending && w.timer(e.addrValidAt, now) {
		return due
	}
	if e.predicted && e.addrValid {
		if c.canVerify(e) {
			return due
		}
		w.root = true
	}
	if !e.issued && !e.valueValid && !e.predicted && e.addrValid && !(e.verified && e.doppIssued) {
		switch {
		case c.cfg.Scheme.TracksTaint() && c.taints.RootSpeculative(e.addrTaintRoot):
			w.root = true
			w.stall = stallTaint
		case c.loadIssueDelayed(e):
			w.spec = true
		case !c.realAccessStalled(e, now, &w):
			return due
		}
	}
	if e.issued && !e.valueValid && w.timer(e.valueAt, now) {
		return due
	}
	if c.vp != nil && e.delayedMiss && !e.issued && !e.vpUsed && !u.propagated {
		return due
	}
	if c.cfg.AddressPrediction && e.hadPrediction && !e.doppIssued && !e.mispredicted &&
		!e.issued && !e.valueValid && (!e.addrValid || c.realLoadBlocked(e)) {
		if w.stall != stallNone || !c.mshrStalled(e.predAddr, now, &w) {
			return due
		}
	}
	if e.doppIssued && !e.preloaded && w.timer(e.doppDoneAt, now) {
		return due
	}
	if e.verified && !e.issued && e.preloaded && !e.valueValid {
		return due
	}
	if !u.propagated && e.valueValid {
		if c.canPropagateLoad(e) {
			return due
		}
		if !c.cfg.Scheme.PropagatesAtHead() {
			w.spec = true // every other delaying rule waits on speculative(seq)
		}
	}
	return w
}

// realAccessStalled reports whether issueRealLoad, for a load the scheme
// lets issue, would reach the hierarchy at cycle now only to be turned
// away by a full MSHR file, noting the stall in w if so. A store-set wait
// and a forwarding store stop it short of the hierarchy, and a DoM
// speculative access is a probe no MSHR limit applies to.
func (c *Core) realAccessStalled(e *lqEntry, now uint64, w *wakeup) bool {
	if c.sset != nil && c.blockedByStoreSet(e.u) {
		return false
	}
	if c.youngestOlderStore(e.u.seq, e.addr) != nil {
		return false
	}
	if c.cfg.Scheme.DelaysOnMiss() && !c.cfg.Mutation.DisablesDelayOnMiss() && c.speculative(e.u.seq) {
		return false
	}
	return c.mshrStalled(e.addr, now, w)
}

// mshrStalled reports whether an access to addr at cycle now would be
// turned away by a full MSHR file, noting the stall and the cycle a fill
// completes in w if so.
func (c *Core) mshrStalled(addr, now uint64, w *wakeup) bool {
	until, stalled := c.hier.MSHRStall(now, addr)
	if stalled {
		w.stall, w.line = stallMSHR, mem.LineAddr(addr)
		w.timer(until, now)
	}
	return stalled
}

// loadIssueDelayed is canIssueLoad's verdict for DoM, for a load whose
// real access is otherwise ready to go: DoM holds back a delayed miss or a
// mispredicted doppelganger's reissue while the load is speculative.
func (c *Core) loadIssueDelayed(e *lqEntry) bool {
	return c.cfg.Scheme.DelaysOnMiss() && !c.cfg.Mutation.DisablesDelayOnMiss() &&
		(e.delayedMiss || e.mispredicted) && c.speculative(e.u.seq)
}
