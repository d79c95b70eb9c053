package pipeline

import (
	"fmt"

	"doppelganger/internal/isa"
	"doppelganger/internal/mem"
	"doppelganger/internal/obs"
)

// commit retires up to CommitWidth finished instructions in program order.
// Commit is where all the non-speculative training happens: the stride
// table (address predictor / prefetcher) and the branch predictor learn
// only here, which is the security anchor of the doppelganger mechanism.
// Under an undo scheme it is also where the rollback journal's retired
// prefix is finalised (the committed instructions' side effects are now
// architectural) and their buffered speculative-trace folds apply.
func (c *Core) commit() {
	frontier := c.commitCycle()
	if frontier != 0 && !c.rob.empty() {
		// A load reaching the head may now release its value under the
		// strict propagation rule.
		if h := &c.robEntries[c.rob.headIdx()]; h.lqIdx >= 0 {
			c.lqAwake.set(h.lqIdx)
		}
	}
	if c.undoOn && frontier != 0 {
		c.drainSpecAt(frontier)
		c.hier.RetireUpTo(frontier)
	}
}

// commitCycle runs one cycle's in-order retirement and returns the highest
// committed sequence number (0 when nothing committed).
func (c *Core) commitCycle() (frontier uint64) {
	for n := 0; n < c.cfg.CommitWidth && !c.rob.empty(); n++ {
		u := &c.robEntries[c.rob.headIdx()]
		if !c.canCommit(u) {
			return frontier
		}
		switch u.kind {
		case isa.KindHalt:
			c.halted = true
		case isa.KindLoad:
			c.commitLoad(u)
		case isa.KindStore:
			c.commitStore(u)
		case isa.KindBranch:
			if c.bpG != nil {
				c.bpG.TrainWithHistory(u.pc, u.hist, u.actTaken)
			} else if c.bpBim != nil {
				c.bpBim.Train(u.pc, u.actTaken)
			} else {
				c.bp.Train(u.pc, u.actTaken)
			}
			if c.obsOn {
				c.obsCommitBranch(u.pc, u.actTaken, u.actTarget)
			}
			c.Stats.CommittedBranches++
		}
		if u.oldDst != noReg {
			c.free(u.oldDst)
		}
		frontier = u.seq
		c.rob.popHead()
		c.Stats.Committed++
		if c.halted {
			return frontier
		}
	}
	return frontier
}

func (c *Core) canCommit(u *uop) bool {
	switch u.kind {
	case isa.KindNop, isa.KindJump, isa.KindHalt:
		return true
	case isa.KindALU:
		return u.propagated
	case isa.KindLoad:
		if !u.propagated {
			return false
		}
		// A value-predicted load must be validated before it may commit.
		e := &c.lqEntries[u.lqIdx]
		return !e.vpUsed || e.valueValid
	case isa.KindBranch:
		return u.resolved
	case isa.KindStore:
		e := &c.sqEntries[u.sqIdx]
		return e.addrValid && e.dataValid && u.shadowResolved
	default:
		panic(fmt.Sprintf("pipeline: cannot commit kind %d", u.kind))
	}
}

func (c *Core) commitLoad(u *uop) {
	if got := c.lq.headIdx(); got != u.lqIdx {
		panic(fmt.Sprintf("pipeline: LQ commit mismatch: head %d, uop %d", got, u.lqIdx))
	}
	e := &c.lqEntries[u.lqIdx]

	if c.obsOn {
		c.obsCommitMem(obsTagLoad, e.addr)
	}
	c.Stats.CommittedLoads++
	if e.hadPrediction {
		c.Stats.CommittedPredictedLoads++
		if e.predAddr == e.addr {
			c.Stats.CommittedCorrectPredicted++
		}
	}
	c.Stats.CommittedLoadLevel[e.level]++

	// DoM delayed replacement update for speculative hits.
	if e.needsL1Touch {
		c.hier.TouchL1(e.addr)
	}

	// Non-speculative predictor training (prefetches fire at access time,
	// in prefetching mode, from this commit-trained table).
	c.stride.Train(u.pc, e.addr)
	if c.ctx != nil {
		c.ctx.Train(u.pc, e.addr)
	}
	if c.vp != nil {
		c.vp.Train(u.pc, u.result)
	}

	c.committedPC[u.pc]++
	c.inflight[u.pc]--

	c.lqEntries[u.lqIdx] = lqEntry{}
	c.lq.popHead()
}

func (c *Core) commitStore(u *uop) {
	if got := c.sq.headIdx(); got != u.sqIdx {
		panic(fmt.Sprintf("pipeline: SQ commit mismatch: head %d, uop %d", got, u.sqIdx))
	}
	e := &c.sqEntries[u.sqIdx]

	c.backing.store(e.addr, e.data)
	res := c.access(e.addr, mem.ClassWriteback, mem.AccessOptions{NoMSHR: true, Write: true})
	if c.obsOn {
		c.obsCommitMem(obsTagStore, e.addr)
		c.obsSpecAccess(uint8(mem.ClassWriteback), e.addr)
	}
	c.Stats.CommittedStores++
	if c.tracing {
		c.emit(obs.Event{Kind: obs.KindCacheAccess, Seq: u.seq, PC: u.pc, Addr: e.addr,
			Level: uint8(res.Level), Class: uint8(mem.ClassWriteback), Lat: res.Latency})
	}

	c.sqEntries[u.sqIdx] = sqEntry{}
	c.sq.popHead()
}
