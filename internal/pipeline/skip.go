package pipeline

import (
	"fmt"
	"slices"
)

// Skip quiet cycles: a cycle in which no stage can act changes nothing but
// the clock, so the run loop, instead of stepping through a stretch of
// them, jumps the clock to the last one and steps the next. A cycle is
// quiet when, on the state the previous cycle left, no stage's guard is
// open (quietUntil): nothing can commit, fetch, dispatch or issue, no load
// is awake, no store can capture its data, and no shadow frontier has
// moved since the last branch walk. Every other guard opens at a known
// cycle, and the stretch ends at the earliest of them:
//
//   - the load queue's timing wheel (wake.go), which holds every parked
//     load's timers, among them the MSHR fills a load turned away by a
//     full file waits on;
//   - brDueAt, the next branch outcome;
//   - the earliest inflightExec doneAt, the next ALU result;
//   - the earliest addrValidAt of a store awaiting its AGU result.
//
// A stretch with no such cycle lasts until the cycle limit: the pipeline
// is deadlocked. Fetch resuming needs no due time: fetch is held back only
// by state that changes when a stage acts (a full buffer, a fetched Halt,
// Drain's stall). Nor does the MSHR file's next expiry: expiry is lazy and
// monotone, so one sweep at the stretch's end stands for all of it.
//
// The skipped cycles' side effects are accounted as one interval
// (skipTo): the cycle count and Stats.Cycles, the ROB and IQ occupancy
// histograms (observed once with the stretch's length as weight), the
// last load-queue pass (passAt, up to which parked loads' stall counters
// settle), and the MSHR-file sweep that an MSHR-parked load's retry would
// have run (sweepForParked).
//
// Under Config.SelfCheck nothing is skipped: every cycle is stepped, and
// skipCheck asserts that a skip would have landed on the same next active
// cycle — that every cycle quietUntil calls quiet leaves the core's state
// as it found it, and that the cycle it names does not.

// skipQuiet runs before each Step of a run loop that goes on stepping: it
// skips the quiet cycles ahead, up to limit, or under SelfCheck checks the
// last prediction and takes the next instead.
func (c *Core) skipQuiet(limit uint64, sc *skipCheck) {
	if c.cfg.SelfCheck {
		sc.check(c)
		return
	}
	if next := c.quietUntil(); next != 0 {
		if to := min(next-1, limit); to > c.cycle {
			c.skipTo(to)
		}
	}
}

// quietUntil reports, for the state the cycle just stepped left, the next
// cycle at which any stage can act when the cycle after it is quiet, and 0
// when it is not. The cheap and common reasons for a busy cycle come first.
func (c *Core) quietUntil() uint64 {
	if c.canFetch() ||
		len(c.fetchBuf) > 0 && c.canDispatch(c.fetchBuf[0].in.Op.Kind()) ||
		c.iqReady.nextIn(&c.rob, 0) < c.rob.len() ||
		c.lqAwake.nextIn(&c.lq, 0) < c.lq.len() ||
		c.shadowMoves != c.brSeen ||
		!c.rob.empty() && c.canCommit(&c.robEntries[c.rob.headIdx()]) {
		return 0
	}
	next := c.brDueAt
	for _, u := range c.inflightExec {
		next = min(next, u.doneAt)
	}
	for i := 0; i < c.sq.len(); i++ {
		e := &c.sqEntries[c.sq.at(i)]
		if !e.valid {
			continue
		}
		if e.addrPending {
			next = min(next, e.addrValidAt)
		}
		// A store's shadow needs no check of its own: the pass lifts it
		// as soon as the address arrives, unless STT holds it on a taint
		// root, which only a shadow frontier move (shadowMoves) frees.
		if !e.dataValid && c.regReady[e.u.src[1]] {
			return 0
		}
	}
	next = c.nextTimer(next)
	if next <= c.cycle+1 {
		return 0
	}
	return next
}

// nextTimer returns the first cycle before `before` whose timing-wheel slot
// holds a timer, or `before` if there is none. The wheel covers the
// lqWheelSlots cycles after this one; a timer further out sits in the slot
// of an earlier cycle, whose pass re-parks it, and that earlier cycle is
// the one returned.
func (c *Core) nextTimer(before uint64) uint64 {
	for t := c.cycle + 1; t < before && t <= c.cycle+lqWheelSlots; t++ {
		if !c.timerSlot(t).empty() {
			return t
		}
	}
	return before
}

// skipTo advances the clock over the quiet cycles after this one through
// cycle to, accounting for their side effects as stepping them would have.
func (c *Core) skipTo(to uint64) {
	n := to - c.cycle
	c.cycle, c.passAt, c.Stats.Cycles = to, to, to
	if !c.lqMSHR.empty() {
		c.sweepForParked(c.lq.len())
	}
	if c.met != nil {
		c.met.robOcc.ObserveN(uint64(c.rob.len()), n)
		c.met.iqOcc.ObserveN(uint64(c.iqLen), n)
	}
}

// skipCheck is SelfCheck's record of the last quiet stretch quietUntil
// predicted: the cycle it named as next active (0 = none pending) and the
// core's state when it was predicted.
type skipCheck struct {
	at  uint64
	ref quietImage
}

// check runs after each cycle under SelfCheck. While a prediction is
// pending, a cycle before the one it named must have left the state
// unchanged, and that one must have changed it; once it is reached (or
// refuted), the next prediction is taken.
func (sc *skipCheck) check(c *Core) {
	if sc.at != 0 {
		same := sc.ref.same(c)
		switch {
		case c.cycle < sc.at && !same:
			panic(fmt.Sprintf("pipeline: cycle %d acted, but a skip from cycle %d would have gone on to cycle %d",
				c.cycle, sc.ref.cycle, sc.at))
		case c.cycle == sc.at && same:
			panic(fmt.Sprintf("pipeline: cycle %d, where a skip from cycle %d would have landed, was quiet",
				c.cycle, sc.ref.cycle))
		case c.cycle == sc.at:
			sc.at = 0
		}
	}
	if sc.at != 0 {
		return
	}
	if next := c.quietUntil(); next != 0 {
		sc.at = next
		sc.ref.take(c)
	}
}

// quietImage is the state of a core that a stage acting changes: the
// front end, the queues' lengths and wake sets, how many store-queue
// addresses and data have arrived, how many registers are ready, the
// branch walk's bookkeeping, the statistics, the hierarchy's counters and
// the observation digests. Left out is what skipTo accounts for itself
// (the cycle, Stats.Cycles, passAt and the MSHR file's sweep) and the ROB
// and load-queue entries, which would cost the checker most to compare: a
// stage changes one only in a cycle that also changes a length, a wake
// set, a count or a counter (a load is visited only once woken, and every
// wake is such a change). The store queue is walked every cycle, but its
// entries only ever gain an address or data, which the count sees.
type quietImage struct {
	cycle  uint64
	scalar quietScalars
	wake   []uint64
}

// quietScalars is quietImage's fixed-size part.
type quietScalars struct {
	seqCtr, fetchPC, fetchHist          uint64
	haltFetched                         bool
	fetchLen, iqLen, execLen, resolving int
	freeRegs, shadows, ready, sqArrived int
	rob, lq, sq                         ring
	shadowMoves, brSeen, brDueAt        uint64
	stats                               Stats
	mem                                 MemoryStats
	rejected, mshrSig                   uint64
	obs                                 [4]uint64
}

func (c *Core) quietScalars() quietScalars {
	st := c.Stats
	st.Cycles = 0
	ready, sqArrived := 0, 0
	for _, r := range c.regReady {
		if r {
			ready++
		}
	}
	for i := 0; i < c.sq.len(); i++ {
		e := &c.sqEntries[c.sq.at(i)]
		if e.addrValid {
			sqArrived++
		}
		if e.dataValid {
			sqArrived++
		}
	}
	return quietScalars{
		seqCtr: c.seqCtr, fetchPC: c.fetchPC, fetchHist: c.fetchHist,
		haltFetched: c.haltFetched,
		fetchLen:    len(c.fetchBuf), iqLen: c.iqLen, execLen: len(c.inflightExec),
		resolving: len(c.pendingResolve), freeRegs: len(c.freeList), shadows: c.shadows.Outstanding(),
		ready: ready, sqArrived: sqArrived,
		rob: c.rob, lq: c.lq, sq: c.sq,
		shadowMoves: c.shadowMoves, brSeen: c.brSeen, brDueAt: c.brDueAt,
		stats: st, mem: SnapshotMemory(c.hier),
		rejected: c.hier.RejectedMSHR, mshrSig: c.hier.MSHRTimeline(),
		obs: [4]uint64{c.obsAddrSeq, c.obsCtrlSeq, c.obsAddrSpec, c.obsCtrlSpec},
	}
}

// wakeSets lists the issue and load queues' wake sets.
func (c *Core) wakeSets() [5]bitset {
	return [...]bitset{c.iqReady, c.lqAwake, c.lqSpec, c.lqMSHR, c.lqTimers}
}

// take records the core's state, reusing the image's storage.
func (m *quietImage) take(c *Core) {
	m.cycle = c.cycle
	m.scalar = c.quietScalars()
	m.wake = m.wake[:0]
	for _, b := range c.wakeSets() {
		m.wake = append(m.wake, b...)
	}
}

// same reports whether the core's state is still the one recorded.
func (m *quietImage) same(c *Core) bool {
	if m.scalar != c.quietScalars() {
		return false
	}
	w := m.wake
	for _, b := range c.wakeSets() {
		if !slices.Equal(w[:len(b)], b) {
			return false
		}
		w = w[len(b):]
	}
	return true
}
