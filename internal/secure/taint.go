package secure

// TaintTracker implements STT's register taint propagation using the
// youngest-root-of-taint (YRoT) representation: each physical register
// carries the sequence number of the youngest speculative load whose value
// flows into it (0 = untainted). Because "speculative" is monotonic in
// sequence number — if a younger instruction is non-speculative then so is
// every older one — a register is tainted exactly when its YRoT load is
// still speculative, and combining taints is a plain max. Untainting is
// therefore implicit: when the root load reaches its visibility point the
// dynamic check flips, with no broadcast walk required.
type TaintTracker struct {
	root    []uint64 // per physical register: YRoT sequence, 0 = none
	shadows *ShadowTracker

	// writes counts register writes that carried a non-zero taint root —
	// the taint-propagation traffic STT's hardware would broadcast.
	writes uint64
}

// NewTaintTracker sizes the tracker for a physical register file and binds
// it to the shadow tracker that defines visibility points.
func NewTaintTracker(physRegs int, shadows *ShadowTracker) *TaintTracker {
	return &TaintTracker{root: make([]uint64, physRegs), shadows: shadows}
}

// Bind makes shadows the shadow tracker that defines the tracker's
// visibility points.
func (t *TaintTracker) Bind(shadows *ShadowTracker) { t.shadows = shadows }

// SetRoot records that register r was written by the load with sequence seq
// (the load taints its own output; whether that taint is live is decided
// dynamically against the shadow frontier).
func (t *TaintTracker) SetRoot(r int, seq uint64) {
	t.root[r] = seq
	if seq != 0 {
		t.writes++
	}
}

// Combine computes the output taint root of an instruction reading the
// given registers: the maximum (youngest) root among the sources.
func (t *TaintTracker) Combine(srcs ...int) uint64 {
	var m uint64
	for _, r := range srcs {
		if t.root[r] > m {
			m = t.root[r]
		}
	}
	return m
}

// SetCombined writes the combined taint of the sources into dst, modelling
// taint flow through a non-load instruction.
func (t *TaintTracker) SetCombined(dst int, srcs ...int) {
	root := t.Combine(srcs...)
	t.root[dst] = root
	if root != 0 {
		t.writes++
	}
}

// TaintedWrites returns the number of register writes that propagated a
// non-zero taint root (observability census).
func (t *TaintTracker) TaintedWrites() uint64 { return t.writes }

// SetWrites overwrites the tainted-write census. Used when a core is
// rebuilt from a checkpoint so restored-run stats match a straight-line
// run; taint roots themselves are empty at a quiescent snapshot point.
func (t *TaintTracker) SetWrites(n uint64) { t.writes = n }

// Clear untaints a register (e.g. when it is rewritten by a non-load with
// untainted sources, or freed).
func (t *TaintTracker) Clear(r int) { t.root[r] = 0 }

// Root returns the raw YRoT of the register (0 = never tainted).
func (t *TaintTracker) Root(r int) uint64 { return t.root[r] }

// Tainted reports whether the register currently holds a tainted value:
// its root load exists and is still speculative.
func (t *TaintTracker) Tainted(r int) bool { return t.RootSpeculative(t.root[r]) }

// TaintedAny reports whether any of the registers is tainted.
func (t *TaintTracker) TaintedAny(regs ...int) bool {
	for _, r := range regs {
		if t.Tainted(r) {
			return true
		}
	}
	return false
}

// RootSpeculative reports whether a taint root (sequence number) is still
// speculative, i.e. whether the taint it denotes is live.
func (t *TaintTracker) RootSpeculative(root uint64) bool {
	return root != 0 && t.shadows.Speculative(root)
}

// Reset untaints every register and clears the census.
func (t *TaintTracker) Reset() {
	for i := range t.root {
		t.root[i] = 0
	}
	t.writes = 0
}
