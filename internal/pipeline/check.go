package pipeline

import "fmt"

// CheckInvariants validates the machine's structural invariants: rename-map
// consistency, physical-register accounting, queue cross-links, and
// shadow-tracker agreement with the reorder buffer, and, under an undo
// scheme, a drained rollback journal whenever the reorder buffer is empty.
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

	// IQ entries must reference live ROB uops.
	for _, u := range c.iq {
		if u.seq > prevSeq || (c.rob.len() > 0 && u.seq < c.robEntries[c.rob.headIdx()].seq) {
			return fmt.Errorf("iq holds stale uop seq %d", u.seq)
		}
	}

	// Undo journal: with no instruction in flight, every journaled side
	// effect has either retired (commit) or been rolled back (squash).
	if c.undoOn && c.rob.empty() && c.hier.UndoPending() > 0 {
		return fmt.Errorf("empty ROB but %d unretired undo-journal records", c.hier.UndoPending())
	}
	return nil
}
