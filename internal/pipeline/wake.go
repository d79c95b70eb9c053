package pipeline

import (
	"fmt"

	"doppelganger/internal/isa"
)

// Wake, don't poll: the issue queue and the load queue visit only the
// entries that can have work this cycle. Visiting an entry early is always
// safe — every stage's guards are re-evaluated on a visit, and a visit
// with no open guard changes nothing — so the wake rules below only have
// to be conservative: an entry may be skipped only while none of its
// guards can open. CheckInvariants (Config.SelfCheck) enforces exactly
// that for both queues.

// lqWheelSlots is the load-queue timing wheel's size in cycles (a power of
// two). A timer further out lands in the slot of an earlier cycle, whose
// visit finds nothing to do and parks the entry again.
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

// resolveShadow lifts the shadow cast by seq from the trackers named, and
// wakes the loads parked on speculation state if it was the oldest
// unresolved shadow of either: only then can a load become
// non-speculative, or a taint root stop being live. (Shadows are added
// younger than every in-flight load, and a squash removes only shadows
// younger than every surviving load, so neither ever moves a gate.)
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
	if moved {
		for i, w := range c.lqSpec {
			c.lqAwake[i] |= w
			c.lqSpec[i] = 0
		}
	}
}

// A load leaving the queue keeps whatever wake bits it had: the walk
// covers only occupied slots, and a slot's next load starts awake anyway,
// so a stale bit costs at most one visit with nothing to do.

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
// next pass if it has work due then, else at its earliest timer and/or
// when the oldest unresolved shadow moves. An entry with neither waits for
// an event to wake it: its AGU issue, a store forwarding into it, or
// reaching the ROB head. (An invalidation snoop needs no wake: its mark
// is read only once the release rule already lets the value propagate.)
func (c *Core) park(i int) {
	due, at, spec := c.loadWake(&c.lqEntries[i], c.cycle+1)
	if due {
		return
	}
	c.lqAwake.clear(i)
	if at != 0 {
		c.timerSlot(at).set(i)
	}
	if spec {
		c.lqSpec.set(i)
	}
}

// loadWake judges, from side-effect-free copies of loadQueuePass's
// guards, when the entry next has work. due means a visit at cycle now
// would act, or must bump a stall counter; otherwise at is the earliest
// cycle a timer guard opens (0 = none), and spec reports a guard that can
// open only when the oldest unresolved shadow moves. The strict (at-head)
// release rule needs neither: commit wakes the load that reaches the head.
//
// Two kinds of load are polled (always due), because their progress hangs
// on state outside the entry: a load awaiting a pending store's data, and
// a load whose visit ticks a stall counter or retries a resource — STT's
// tainted real access (STTTaintStalls), a store-set wait (MemDepStalls),
// a full MSHR file (RejectedMSHR), a busy load port, DoM+VP's value
// prediction — all of which sit behind the real- or doppelganger-issue
// guards reported due here.
func (c *Core) loadWake(e *lqEntry, now uint64) (due bool, at uint64, spec bool) {
	u := e.u
	if u.propagated && e.valueValid && e.pendingStoreSeq == 0 {
		return false, 0, false // final: waits only for commit
	}
	if e.pendingStoreSeq != 0 {
		return true, 0, false
	}
	timer := func(t uint64) bool {
		if now >= t {
			return true
		}
		if at == 0 || t < at {
			at = t
		}
		return false
	}
	if e.addrPending && timer(e.addrValidAt) {
		return true, 0, false
	}
	if e.predicted && e.addrValid {
		if c.canVerify(e) {
			return true, 0, false
		}
		spec = true
	}
	if !e.issued && !e.valueValid && !e.predicted && e.addrValid && !(e.verified && e.doppIssued) {
		if !c.loadIssueDelayed(e) {
			return true, 0, false
		}
		spec = true
	}
	if e.issued && !e.valueValid && timer(e.valueAt) {
		return true, 0, false
	}
	if c.vp != nil && e.delayedMiss && !e.issued && !e.vpUsed && !u.propagated {
		return true, 0, false
	}
	if c.cfg.AddressPrediction && e.hadPrediction && !e.doppIssued && !e.mispredicted &&
		!e.issued && !e.valueValid && (!e.addrValid || c.realLoadBlocked(e)) {
		return true, 0, false
	}
	if e.doppIssued && !e.preloaded && timer(e.doppDoneAt) {
		return true, 0, false
	}
	if e.verified && !e.issued && e.preloaded && !e.valueValid {
		return true, 0, false
	}
	if !u.propagated && e.valueValid {
		if c.canPropagateLoad(e) {
			return true, 0, false
		}
		if !c.cfg.Scheme.PropagatesAtHead() {
			spec = true
		}
	}
	return false, at, spec
}

// loadIssueDelayed is canIssueLoad's verdict without its stall counter,
// for a load whose real access is otherwise ready to go: DoM holds back a
// delayed miss or a mispredicted doppelganger's reissue while the load is
// speculative. STT's taint gate is not reported here: a load stalled by it
// ticks STTTaintStalls on every visit, so it stays polled.
func (c *Core) loadIssueDelayed(e *lqEntry) bool {
	return c.cfg.Scheme.DelaysOnMiss() && !c.cfg.Mutation.DisablesDelayOnMiss() &&
		(e.delayedMiss || e.mispredicted) && c.speculative(e.u.seq)
}
