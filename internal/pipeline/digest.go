package pipeline

// MicroDigest fingerprints the attacker-observable micro-architectural
// state of a finished run, component by component. It is the oracle of the
// differential leakage checker (internal/leakcheck): two runs that differ
// only in secret data must produce identical digests under every secure
// speculation scheme, or the secret has leaked into state a co-resident
// attacker can measure.
//
// What each component captures:
//
//   - Cycles: end-to-end execution time (the timing channel).
//   - L1/L2/L3: cache tag + LRU-rank + dirty contents at each level
//     (prime+probe / flush+reload channels).
//   - MSHR: the miss-handling allocation timeline (occupancy back-pressure
//     channel).
//   - Traffic: per-class access/hit/miss counts, DRAM and write-back
//     traffic, MSHR rejections (contention channels).
//   - Stride/Context/Branch: predictor table contents (predictor-state
//     channels; the doppelganger security anchor requires these to be
//     trained on committed execution only).
//
// Architectural state (registers, memory values) is deliberately excluded:
// a victim may legitimately compute on its own secret, and values are not
// observable through the micro-architectural side channels modelled here —
// only addresses and timing are.
type MicroDigest struct {
	Cycles  uint64
	L1      uint64
	L2      uint64
	L3      uint64
	MSHR    uint64
	Traffic uint64
	Stride  uint64
	Context uint64
	Branch  uint64
}

// MicroDigest assembles the digest of the core's current state. Call it on
// a quiescent (halted) core; intermediate digests are well-defined but
// compare meaningfully only at identical cycle counts.
func (c *Core) MicroDigest() MicroDigest {
	h := c.hier
	d := MicroDigest{
		Cycles:  c.cycle,
		L1:      h.L1D.Fingerprint(c.cycle),
		L2:      h.L2.Fingerprint(c.cycle),
		L3:      h.L3.Fingerprint(c.cycle),
		MSHR:    h.MSHRTimeline(),
		Traffic: h.TrafficFingerprint(),
		Stride:  c.stride.Snapshot(),
	}
	if c.ctx != nil {
		d.Context = c.ctx.Snapshot()
	}
	if c.bpG != nil {
		d.Branch = c.bpG.Snapshot()
	} else if s, ok := c.bp.(interface{ Snapshot() uint64 }); ok {
		d.Branch = s.Snapshot()
	}
	return d
}
