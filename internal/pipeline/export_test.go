package pipeline

// RandomProgram exposes the fuzz tests' program generator to the external
// test package.
var RandomProgram = randomProgram

// Busy counts the core's in-flight structures that hold something: the
// store queue, fetch buffer, execution and branch lists, the issue queue's
// ready set, the load queue's awake, shadow-parked, MSHR-parked and timer
// sets, and the undo journal. The reset tests abandon runs where it peaks.
func (c *Core) Busy() int {
	n := 0
	for _, busy := range []bool{
		c.sq.len() > 0, len(c.fetchBuf) > 0, len(c.inflightExec) > 0, len(c.pendingResolve) > 0,
		!c.iqReady.empty(), !c.lqAwake.empty(), !c.lqSpec.empty(), !c.lqMSHR.empty(), !c.lqTimers.empty(),
		c.hier.UndoPending() > 0,
	} {
		if busy {
			n++
		}
	}
	return n
}

// StepToLoadQueuePass, LoadQueuePass and FinishCycle are Step cut in
// three around its load-queue pass, so a benchmark can time the pass
// alone: the stages before it, in Step's order, the pass, and the stages
// after it. StepToLoadQueuePass reports false when the cycle's commit
// halted the machine, which ends the cycle.
func (c *Core) StepToLoadQueuePass() bool {
	c.cycle++
	c.commit()
	if c.halted {
		return false
	}
	c.writeback()
	c.resolveBranches()
	c.storeQueuePass()
	return true
}

// LoadQueuePass runs the cycle's load-queue pass; see StepToLoadQueuePass.
func (c *Core) LoadQueuePass() { c.loadQueuePass() }

// FinishCycle runs the cycle's stages after its load-queue pass; see
// StepToLoadQueuePass.
func (c *Core) FinishCycle() {
	c.issue()
	c.dispatch()
	c.fetch()
	if c.cfg.SelfCheck {
		c.mustCheckInvariants()
	}
	c.Stats.Cycles = c.cycle
}

// AwakeLoads reports whether the next load-queue pass has a load to visit.
func (c *Core) AwakeLoads() bool { return c.lqAwake.nextIn(&c.lq, 0) < c.lq.len() }
