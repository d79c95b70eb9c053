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
