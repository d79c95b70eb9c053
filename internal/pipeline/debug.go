package pipeline

import (
	"fmt"
	"strings"

	"doppelganger/internal/isa"
)

// DumpState renders the oldest n reorder-buffer entries with their full
// load/store/branch state — the first tool to reach for when diagnosing a
// stall or a deadlock (doppelsim exposes it indirectly via -trace).
func (c *Core) DumpState(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle=%d committed=%d shadows=%d iq=%d lq=%d sq=%d pendResolve=%d\n",
		c.cycle, c.Stats.Committed, c.shadows.Outstanding(), c.iqLen, c.lq.len(), c.sq.len(), len(c.pendingResolve))
	if f, ok := c.shadows.Frontier(); ok {
		fmt.Fprintf(&sb, "shadow frontier seq=%d\n", f)
	}
	for i := 0; i < c.rob.len() && i < n; i++ {
		u := &c.robEntries[c.rob.at(i)]
		fmt.Fprintf(&sb, "rob[%d] seq=%d pc=%d %-24s issued=%v exec=%v prop=%v resolved=%v shadowRes=%v",
			i, u.seq, u.pc, u.in.String(), u.issued, u.executed, u.propagated, u.resolved, u.shadowResolved)
		if u.lqIdx >= 0 {
			e := &c.lqEntries[u.lqIdx]
			fmt.Fprintf(&sb, " | LQ addrValid=%v addr=%#x issued=%v valValid=%v pred=%v predAddr=%#x doppIss=%v preld=%v verif=%v mispred=%v delayed=%v pendStore=%d taintRoot=%d rootSpec=%v",
				e.addrValid, e.addr, e.issued, e.valueValid, e.predicted, e.predAddr, e.doppIssued,
				e.preloaded, e.verified, e.mispredicted, e.delayedMiss, e.pendingStoreSeq,
				e.addrTaintRoot, c.taints.RootSpeculative(e.addrTaintRoot))
		}
		if u.sqIdx >= 0 {
			e := &c.sqEntries[u.sqIdx]
			fmt.Fprintf(&sb, " | SQ addrValid=%v dataValid=%v taintRoot=%d", e.addrValid, e.dataValid, e.addrTaintRoot)
		}
		if u.kind == isa.KindBranch {
			fmt.Fprintf(&sb, " | BR outcome=%v brRoot=%d rootSpec=%v", u.outcomeReady, u.brTaintRoot, c.taints.RootSpeculative(u.brTaintRoot))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
