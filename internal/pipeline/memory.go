package pipeline

import (
	"fmt"

	"doppelganger/internal/mem"
	"doppelganger/internal/obs"
)

// storeQueuePass advances store state each cycle: AGU results arrive, data
// operands are captured, and store-address shadows resolve. Resolution is
// the observable event: it lifts the data shadow and snoops the load queue
// for memory-order violations and forwarding overrides. Under STT it is
// delayed until the store's address operand is untainted (store-to-load
// forwarding is an implicit channel).
func (c *Core) storeQueuePass() {
	for i := 0; i < c.sq.len(); i++ {
		e := &c.sqEntries[c.sq.at(i)]
		if !e.valid {
			continue
		}
		if e.addrPending && c.cycle >= e.addrValidAt {
			e.addrPending = false
			e.addrValid = true
			if !c.lqMSHR.empty() {
				c.wakeForwarded(e)
			}
		}
		if !e.dataValid && c.regReady[e.u.src[1]] {
			e.data = c.regVal[e.u.src[1]]
			e.dataValid = true
		}
		if e.u.castsShadow && !e.u.shadowResolved && e.addrValid && c.storeAddrSafe(e) {
			e.u.shadowResolved = true
			c.resolveShadow(e.u.seq, false)
			c.noteShadowClose(e.u)
			if c.storeResolveScan(e) {
				// A violation squash rewrote the young end of both
				// queues; the loop bound re-reads sq.len() so
				// continuing is safe, but the squash already redirected
				// fetch — finish the pass normally.
				continue
			}
		}
	}
}

func (c *Core) storeAddrSafe(e *sqEntry) bool {
	if c.cfg.Scheme.TracksTaint() {
		return !c.taints.RootSpeculative(e.addrTaintRoot)
	}
	return true
}

// storeResolveScan snoops the load queue when a store's address resolves.
// Younger loads that already consumed a conflicting value are squashed
// (memory-order violation); unpropagated values are transparently
// overridden — in particular doppelganger preloads, which are never
// squashed or suppressed by forwarding (§4.4). It reports whether a squash
// happened.
func (c *Core) storeResolveScan(s *sqEntry) bool {
	for i := 0; i < c.lq.len(); i++ {
		l := &c.lqEntries[c.lq.at(i)]
		if !l.valid || l.u.seq < s.u.seq {
			continue
		}
		switch {
		case l.addrValid && l.addr == s.addr:
			// Real (or verified-doppelganger) address matches. The load's
			// value must come from this store unless a younger store
			// already supplied it.
			if l.fwdStore >= s.u.seq {
				continue
			}
			if l.u.propagated {
				c.Stats.MemOrderViolations++
				if c.sset != nil {
					c.sset.Assign(l.u.pc, s.u.pc)
				}
				c.squashAfter(l.u.seq-1, l.u.pc, l.u.hist)
				return true
			}
			c.overrideFromStore(l, s)
		case l.predicted && !l.addrValid && l.predAddr == s.addr:
			// Live doppelganger with a matching predicted address: the
			// store value overrides the preload; the doppelganger's
			// memory access is unaffected (it must still appear in
			// memory).
			if l.fwdStore >= s.u.seq {
				continue
			}
			c.overrideFromStore(l, s)
		}
	}
	return false
}

// overrideFromStore redirects an unpropagated load (or doppelganger
// preload) to take its value from the given store.
func (c *Core) overrideFromStore(l *lqEntry, s *sqEntry) {
	c.lqAwake.set(l.u.lqIdx)
	l.fwdStore = s.u.seq
	l.storeForwarded = true
	if s.dataValid {
		c.deliverStoreData(l, s.data)
		return
	}
	l.pendingStoreSeq = s.u.seq
	// Any value in flight or already present is stale.
	if l.issued || l.verified {
		l.valueValid = false
	}
}

// deliverStoreData installs forwarded store data into whichever phase the
// load is in.
func (c *Core) deliverStoreData(l *lqEntry, data int64) {
	l.pendingStoreSeq = 0
	if l.issued || l.verified {
		l.value = data
		l.valueValid = true
		return
	}
	l.preValue = data
}

// tryPendingStoreData completes a forwarding whose store data was not ready
// at override time.
func (c *Core) tryPendingStoreData(l *lqEntry) {
	for i := 0; i < c.sq.len(); i++ {
		s := &c.sqEntries[c.sq.at(i)]
		if !s.valid || s.u.seq != l.pendingStoreSeq {
			continue
		}
		if s.dataValid {
			c.deliverStoreData(l, s.data)
		}
		return
	}
	panic(fmt.Sprintf("pipeline: load %d waits on vanished store %d", l.u.seq, l.pendingStoreSeq))
}

// loadQueuePass advances the awake loads through their lifecycle, oldest
// first: address arrival, doppelganger verification, real and doppelganger
// memory issue, value arrival, and propagation — each gated by the active
// secure speculation scheme. After its visit a load parks until it next
// has work (see park); parked loads cost nothing.
func (c *Core) loadQueuePass() {
	c.releaseTimers()
	if c.cfg.SelfCheck {
		if err := c.checkLoadWake(c.cycle, nil); err != nil {
			panic(fmt.Sprintf("pipeline: invariant violated at the start of cycle %d's load-queue pass: %v", c.cycle, err))
		}
	}
	c.passAt = c.cycle
	ports := c.cfg.LoadPorts
	swept := c.lqMSHR.empty()
	for off := c.lqAwake.nextIn(&c.lq, 0); off < c.lq.len(); off = c.lqAwake.nextIn(&c.lq, off+1) {
		i := c.lq.at(off)
		if !swept {
			swept = c.sweepForParked(off)
		}
		if c.lqEntries[i].stall != stallNone {
			c.unpark(i)
		}
		free := ports
		if c.visitLoad(&c.lqEntries[i], &ports) {
			return // squashed from this load; fetch is redirected
		}
		if free > 0 && ports == 0 && !c.lqMSHR.empty() {
			c.portsExhausted(off)
		}
		c.park(i)
	}
	if !swept {
		c.sweepForParked(c.lq.len())
	}
}

// visitLoad runs one load's lifecycle step for this cycle and reports
// whether it squashed the pipeline from that load.
func (c *Core) visitLoad(e *lqEntry, ports *int) (squashed bool) {
	u := e.u

	// Fast path: a propagated load whose value is final has nothing
	// left to do here — it is only waiting in the queue for commit.
	// (A final value implies the address resolved and any pending
	// store forwarding completed; invalidation marks only matter
	// before propagation.)
	if u.propagated && e.valueValid && e.pendingStoreSeq == 0 {
		return false
	}

	if e.addrPending && c.cycle >= e.addrValidAt {
		e.addrPending = false
		e.addrValid = true
		if u.castsShadow && !u.shadowResolved {
			// Exception shadow: lifted once the address translates.
			u.shadowResolved = true
			c.resolveShadow(u.seq, false)
			c.noteShadowClose(u)
		}
		if c.cfg.Mutation.TrainsSpeculatively() {
			// Planted weakening (leakcheck mutation mode): train the
			// address predictor the moment the address resolves —
			// speculatively, including wrong-path loads — instead of
			// only at commit.
			c.stride.Train(u.pc, e.addr)
			if c.ctx != nil {
				c.ctx.Train(u.pc, e.addr)
			}
		}
	}
	if e.pendingStoreSeq != 0 {
		c.tryPendingStoreData(e)
	}

	// Doppelganger verification: compare the predicted address with
	// the resolved one. The resolution of this implicit channel is
	// delayed until the address is safe (untainted under STT); its
	// effects (reissue, propagation) follow the per-scheme rules.
	if e.predicted && e.addrValid && c.canVerify(e) {
		e.predicted = false
		if e.predAddr == e.addr {
			e.verified = true
			c.Stats.DoppVerified++
			if c.tracing {
				c.emit(obs.Event{Kind: obs.KindDoppVerify, Seq: u.seq, PC: u.pc, Addr: e.addr})
			}
		} else {
			e.mispredicted = true
			e.storeForwarded = false
			e.pendingStoreSeq = 0
			e.fwdStore = 0
			c.Stats.DoppMispredicted++
			if c.tracing {
				c.emit(obs.Event{Kind: obs.KindDoppMispredict, Seq: u.seq, PC: u.pc,
					Addr: e.addr, Aux: e.predAddr})
			}
		}
	}

	// Real-path memory issue: the prediction has been refuted, or was
	// never made, or verified without a doppelganger access in flight
	// to supply the value.
	if !e.issued && !e.valueValid && !e.predicted && e.addrValid &&
		!(e.verified && e.doppIssued) && c.canIssueLoad(e) {
		c.issueRealLoad(e, ports)
	}

	// Value arrival for the real path.
	if e.issued && !e.valueValid && e.pendingStoreSeq == 0 && c.cycle >= e.valueAt {
		e.valueValid = true
		// DoM+VP validation: the speculatively propagated predicted
		// value is compared against the real one; a mismatch squashes
		// from the load (the rollback cost the paper's §2.3 cites).
		if e.vpUsed {
			if e.value == e.vpValue {
				c.Stats.VPCorrect++
			} else {
				c.Stats.VPMispredicted++
				c.squashAfter(u.seq-1, u.pc, u.hist)
				return true
			}
		}
	}

	// DoM+VP: a delayed miss may propagate a predicted *value*
	// speculatively; the real access still happens (and validates)
	// once the load is non-speculative.
	if c.vp != nil && e.delayedMiss && !e.issued && !e.vpUsed && !u.propagated {
		// The prediction fires later than dispatch, so rebase the
		// occurrence by the instances that have committed since.
		occ := e.occ - int(c.committedPC[u.pc]-e.commitBase)
		if v, ok := c.vp.Predict(u.pc, occ); ok {
			e.vpUsed = true
			e.vpValue = v
			c.Stats.VPPredictions++
			c.regVal[u.dst] = v
			c.markReady(u.dst)
			u.result = v
			u.propagated = true
		}
	}

	// Doppelganger memory issue. A doppelganger stands in whenever the
	// real access cannot proceed: its address is still unresolved, or
	// the scheme blocks the real access (DoM's delayed miss, STT's
	// tainted address). Real loads were given priority above — older
	// entries and real issues consume ports first.
	if c.cfg.AddressPrediction && e.hadPrediction && !e.doppIssued &&
		!e.mispredicted && !e.issued && !e.valueValid && *ports > 0 &&
		(!e.addrValid || c.realLoadBlocked(e)) {
		c.issueDoppelganger(e, ports)
	}

	// Doppelganger preload arrival.
	if e.doppIssued && !e.preloaded && c.cycle >= e.doppDoneAt {
		e.preloaded = true
	}

	// Promote a verified preload to the load's final value.
	if e.verified && !e.issued && e.preloaded && e.pendingStoreSeq == 0 && !e.valueValid {
		e.value = e.preValue
		e.level = e.doppLevel
		e.valueValid = true
		e.doppUsed = true
	}

	// Propagation: make the value architecturally visible to
	// dependents, under the scheme's release rule.
	if !u.propagated && e.valueValid && c.canPropagateLoad(e) {
		if e.invalidated && mem.LineAddr(e.addr) == e.invalLine {
			// §4.5: a snooped invalidation takes effect when the
			// preloaded data would propagate; mispredicted
			// doppelganger snoops were discarded at verification.
			c.Stats.InvalidationSquashes++
			c.squashAfter(u.seq-1, u.pc, u.hist)
			return true
		}
		if c.tracing {
			c.emit(obs.Event{Kind: obs.KindLoadPropagate, Seq: u.seq, PC: u.pc,
				Addr: e.addr, Value: e.value})
		}
		c.regVal[u.dst] = e.value
		c.markReady(u.dst)
		u.result = e.value
		u.executed = true
		u.propagated = true
		if c.cfg.Scheme.TracksTaint() && !c.cfg.Mutation.DisablesTaint() {
			c.taints.SetRoot(u.dst, u.seq)
		}
	}
	return false
}

func (c *Core) canVerify(e *lqEntry) bool {
	if c.cfg.Scheme.TracksTaint() {
		return !c.taints.RootSpeculative(e.addrTaintRoot)
	}
	return true
}

// realLoadBlocked reports whether the scheme currently prevents the real
// (resolved-address) access from being performed, making a doppelganger
// stand-in worthwhile.
func (c *Core) realLoadBlocked(e *lqEntry) bool {
	switch {
	case c.cfg.Scheme.TracksTaint():
		return c.taints.RootSpeculative(e.addrTaintRoot)
	case c.cfg.Scheme.DelaysOnMiss():
		return e.delayedMiss && c.speculative(e.u.seq)
	default:
		return false
	}
}

// canIssueLoad gates the real memory access of a load.
func (c *Core) canIssueLoad(e *lqEntry) bool {
	switch {
	case c.cfg.Scheme.TracksTaint():
		// Loads are transmitters: a tainted address may not reach memory.
		if c.taints.RootSpeculative(e.addrTaintRoot) {
			c.Stats.STTTaintStalls++
			return false
		}
		return true
	case c.cfg.Scheme.DelaysOnMiss():
		if c.cfg.Mutation.DisablesDelayOnMiss() {
			return true
		}
		// A delayed miss retries, and a mispredicted doppelganger
		// reissues, only once the load is non-speculative (§5.3).
		if e.delayedMiss || e.mispredicted {
			return !c.speculative(e.u.seq)
		}
		return true
	default:
		return true
	}
}

// issueRealLoad performs store-to-load forwarding or a memory access for
// the resolved load address.
func (c *Core) issueRealLoad(e *lqEntry, ports *int) {
	// Memory dependence prediction: wait for older unresolved stores the
	// load has violated against before, instead of speculating past them.
	if c.sset != nil && c.blockedByStoreSet(e.u) {
		c.Stats.MemDepStalls++
		return
	}
	if s := c.youngestOlderStore(e.u.seq, e.addr); s != nil {
		if !s.dataValid {
			return // wait for the store's data, retry next cycle
		}
		e.issued = true
		e.fwdStore = s.u.seq
		e.value = s.data
		e.valueAt = c.cycle + c.cfg.STLFLatency
		e.level = mem.LevelL1
		c.Stats.STLFForwards++
		return
	}
	if *ports == 0 {
		return
	}
	opts := mem.AccessOptions{
		DoMSpeculative: c.cfg.Scheme.DelaysOnMiss() && c.speculative(e.u.seq) &&
			!c.cfg.Mutation.DisablesDelayOnMiss(),
	}
	if c.undoOn {
		// Undo scheme: every load access is journaled unconditionally — a
		// load can be squashed by an older instruction (or squash itself),
		// so even "safe-looking" accesses must be reversible.
		opts.UndoSeq = e.u.seq
	}
	res := c.access(e.addr, mem.ClassDemand, opts)
	if res.Rejected {
		return // MSHR full: parks until the file or the line changes
	}
	*ports--
	if res.DelayedMiss {
		// Nothing was performed: a DoM delayed miss changes no cache, MSHR
		// or DRAM state, so it leaves no mark on the speculative trace.
		e.delayedMiss = true
		c.Stats.DoMDelayedMisses++
		return
	}
	if c.obsOn {
		c.obsSpecAccessAt(e.u.seq, uint8(mem.ClassDemand), e.addr)
	}
	e.issued = true
	e.delayedMiss = false
	e.valueAt = c.cycle + res.Latency
	e.level = res.Level
	e.value = c.backing.load(e.addr)
	if c.met != nil {
		c.met.loadLatency.Observe(res.Latency)
	}
	c.firePrefetches(e.u.seq, e.u.pc, e.addr)
	if c.tracing {
		var fl uint8
		if res.Merged {
			fl = obs.FlagMerged
		}
		c.emit(obs.Event{Kind: obs.KindLoadIssue, Seq: e.u.seq, PC: e.u.pc, Addr: e.addr,
			Level: uint8(res.Level), Lat: res.Latency, Flags: fl})
	}
	if opts.DoMSpeculative && res.Level == mem.LevelL1 {
		e.needsL1Touch = true
	}
}

// issueDoppelganger sends the address-predicted access to memory. The
// access is an ordinary access — allowed to miss and fill caches even under
// DoM, because the predicted address cannot depend on speculative values.
// An older resolved store with a matching address forwards its value into
// the preload, but the memory access still happens (a store must never make
// a doppelganger invisible, §4.4).
func (c *Core) issueDoppelganger(e *lqEntry, ports *int) {
	opts := mem.AccessOptions{}
	if c.undoOn {
		opts.UndoSeq = e.u.seq
	}
	res := c.access(e.predAddr, mem.ClassDoppelganger, opts)
	if res.Rejected {
		return // MSHR full: parks until the file or the line changes
	}
	*ports--
	if c.obsOn {
		c.obsSpecAccessAt(e.u.seq, uint8(mem.ClassDoppelganger), e.predAddr)
	}
	e.doppIssued = true
	e.doppDoneAt = c.cycle + res.Latency
	e.doppLevel = res.Level
	e.doppHitL1 = res.Level == mem.LevelL1
	c.Stats.DoppIssued++
	c.firePrefetches(e.u.seq, e.u.pc, e.predAddr)
	if c.tracing {
		var fl uint8
		if res.Merged {
			fl = obs.FlagMerged
		}
		c.emit(obs.Event{Kind: obs.KindDoppIssue, Seq: e.u.seq, PC: e.u.pc, Addr: e.predAddr,
			Level: uint8(res.Level), Lat: res.Latency, Flags: fl})
	}
	if s := c.youngestOlderStore(e.u.seq, e.predAddr); s != nil {
		e.storeForwarded = true
		e.fwdStore = s.u.seq
		if s.dataValid {
			e.preValue = s.data
		} else {
			e.pendingStoreSeq = s.u.seq
		}
		return
	}
	e.preValue = c.backing.load(e.predAddr)
}

// firePrefetches runs the shared table in prefetching mode: the resolved
// access at (pc, addr) triggers fills for future stride targets. The table
// itself is only ever trained at commit; prefetching from the address of an
// access the active scheme has already allowed preserves each scheme's
// guarantees. Under an undo scheme the prefetch fills are journaled against
// the triggering load's sequence number: they exist only because that load
// was performed, so its squash must unwind them too.
func (c *Core) firePrefetches(seq, pc, addr uint64) {
	if c.cfg.PrefetchDegree <= 0 {
		return
	}
	c.prefetchBuf = c.stride.PrefetchTargets(pc, addr, c.cfg.PrefetchDistance, c.cfg.PrefetchDegree, c.prefetchBuf)
	for _, t := range c.prefetchBuf {
		opts := mem.AccessOptions{Prefetch: true}
		if c.undoOn {
			opts.UndoSeq = seq
		}
		res := c.access(t, mem.ClassPrefetch, opts)
		if !res.Rejected {
			if c.obsOn {
				c.obsSpecAccessAt(seq, uint8(mem.ClassPrefetch), t)
			}
			c.Stats.PrefetchesIssued++
			if c.tracing {
				var fl uint8
				if res.Merged {
					fl = obs.FlagMerged
				}
				c.emit(obs.Event{Kind: obs.KindCacheAccess, PC: pc, Addr: t,
					Level: uint8(res.Level), Class: uint8(mem.ClassPrefetch),
					Lat: res.Latency, Flags: fl})
			}
		}
	}
}

// blockedByStoreSet reports whether an older store with an unresolved
// address shares a store set with the load.
func (c *Core) blockedByStoreSet(u *uop) bool {
	for i := c.sq.len() - 1; i >= 0; i-- {
		s := &c.sqEntries[c.sq.at(i)]
		if !s.valid || s.u.seq >= u.seq || s.addrValid {
			continue
		}
		if c.sset.SameSet(u.pc, s.u.pc) {
			return true
		}
	}
	return false
}

// youngestOlderStore returns the youngest store older than seq whose
// resolved address matches addr, or nil. Older stores with unresolved
// addresses are speculated past (no-alias prediction); violations are
// caught by storeResolveScan.
func (c *Core) youngestOlderStore(seq, addr uint64) *sqEntry {
	for i := c.sq.len() - 1; i >= 0; i-- {
		s := &c.sqEntries[c.sq.at(i)]
		if !s.valid || s.u.seq >= seq {
			continue
		}
		if s.addrValid && s.addr == addr {
			return s
		}
	}
	return nil
}

// canPropagateLoad applies the scheme's release rule to a load whose value
// is present.
func (c *Core) canPropagateLoad(e *lqEntry) bool {
	switch {
	case c.cfg.Scheme.DelaysPropagation() && c.cfg.Mutation.DisablesPropagationDelay():
		// Planted weakening (leakcheck mutation mode): NDA's propagation
		// delay is gone, values release as on the unsafe baseline.
		return true
	case c.cfg.Scheme.PropagatesAtHead():
		// Strict propagation: only the oldest in-flight instruction may
		// release a loaded value.
		return !c.rob.empty() && c.robEntries[c.rob.headIdx()].seq == e.u.seq
	case c.cfg.Scheme.DelaysPropagation():
		// Speculatively loaded values never propagate until the load is
		// bound to commit.
		return !c.speculative(e.u.seq)
	case c.cfg.Scheme.DelaysOnMiss():
		// Values obtained via a doppelganger that missed in the L1 only
		// propagate once non-speculative — matching when a conventional
		// DoM load that missed would have produced them (§5.3). Hits and
		// real-path values (already DoM-gated at issue) release
		// immediately.
		if e.doppUsed && !e.doppHitL1 {
			return !c.speculative(e.u.seq)
		}
		return true
	default:
		// Unsafe propagates freely; STT propagates and taints.
		return true
	}
}
