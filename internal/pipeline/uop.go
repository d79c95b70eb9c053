package pipeline

import (
	"math/bits"

	"doppelganger/internal/isa"
	"doppelganger/internal/mem"
)

// noReg marks an absent physical register operand.
const noReg = -1

// uop is one in-flight dynamic instruction (a reorder-buffer entry).
type uop struct {
	seq  uint64
	pc   uint64
	in   isa.Instruction
	kind isa.Kind

	// Renaming.
	dst    int // physical destination, noReg if none
	oldDst int // previous mapping of the architectural destination
	src    [2]int
	nsrc   int

	// Issue-queue wakeup: queued marks a uop waiting in the IQ; pending
	// counts its issue-time sources not yet ready. While source k is
	// outstanding (bit k of linked), waitNext[k] links the uop into that
	// register's waiter list (see Core.regWaiters).
	queued   bool
	pending  int8
	linked   uint8
	waitNext [2]int32

	// Execution status.
	issued     bool   // left the IQ (execution started / AGU issued)
	executed   bool   // result computed or memory value final
	doneAt     uint64 // cycle the in-flight execution completes
	inFlight   bool   // on the execution completion list
	propagated bool   // destination marked ready for dependents
	result     int64

	// hist is the speculative global branch history at fetch (gshare).
	hist uint64

	// Branch state.
	predTaken    bool
	predTarget   uint64
	actTaken     bool
	actTarget    uint64
	outcomeAt    uint64 // cycle the outcome becomes known
	outcomeReady bool
	resolved     bool   // shadow lifted, squash (if any) applied
	brTaintRoot  uint64 // taint root of the predicate (STT)
	// gateShut is 1 + the Core.shadowMoves count at which the branch's
	// resolution gate was last found shut (0 = not found shut): until a
	// shadow frontier moves again, it stays shut.
	gateShut uint64

	// Shadow bookkeeping.
	castsShadow    bool
	shadowResolved bool
	shadowAt       uint64 // cycle the shadow was cast (lifetime census)

	// Memory bookkeeping: index into the core's lq/sq ring, or -1.
	lqIdx int
	sqIdx int
}

func (u *uop) isLoad() bool  { return u.kind == isa.KindLoad }
func (u *uop) isStore() bool { return u.kind == isa.KindStore }

// lqEntry is a load-queue slot. It carries both the real load's state and,
// when address prediction is enabled, the doppelganger's state (the paper's
// point: a load and its doppelganger share one LQ entry and one physical
// destination register).
type lqEntry struct {
	u     *uop
	valid bool

	// Real address state.
	addr          uint64 // effective address (word aligned)
	addrValid     bool
	addrValidAt   uint64 // cycle the AGU result arrives
	addrPending   bool   // AGU issued, result not yet arrived
	addrTaintRoot uint64 // taint root of the address operands (STT)

	// Real access state.
	issued      bool // memory access (or forwarding) performed
	valueAt     uint64
	valueValid  bool
	value       int64
	level       mem.Level
	delayedMiss bool   // DoM: speculative L1 miss; retry when non-speculative
	fwdStore    uint64 // sequence of the store that forwarded the value (0 = memory)

	// Doppelganger state.
	hadPrediction  bool // a prediction was produced for this load
	predicted      bool // prediction still live (not yet verified/refuted)
	predAddr       uint64
	doppIssued     bool
	doppDoneAt     uint64
	doppLevel      mem.Level
	doppHitL1      bool
	preloaded      bool // preload value present in preValue
	preValue       int64
	storeForwarded bool // preValue supplied/overridden by an older store
	verified       bool // predicted address matched the real address
	mispredicted   bool

	// occ is the in-flight occurrence number of this load's PC at
	// dispatch (the predictor's extrapolation distance); commitBase is
	// the PC's committed-instance count at dispatch, so a later
	// prediction can subtract instances that have committed since.
	occ        int
	commitBase uint64

	// doppUsed marks that the final value came from the doppelganger
	// preload (needed for DoM's hit-vs-miss propagation rule).
	doppUsed bool

	// Value prediction (DoM+VP): a predicted value was propagated
	// speculatively and must be validated against the real access.
	vpUsed  bool
	vpValue int64

	// pendingStoreSeq names an older store whose data this entry awaits
	// (store-to-load forwarding with not-yet-ready data). 0 = none.
	pendingStoreSeq uint64

	// DoM delayed replacement update owed at commit.
	needsL1Touch bool
	// Invalidation snoop hit (memory consistency, §4.5): the snooped line.
	invalidated bool
	invalLine   uint64

	// A load parked until it (waitSpec), or its address's taint root
	// (waitRoot), is no longer speculative.
	waitSpec bool
	waitRoot bool
	// A load parked on a wait that ticks a stall counter (see wake.go):
	// which counter, the line an MSHR stall waits to see filled, the last
	// cycle the counter already covers, and cycles owed to it that
	// stallSince has moved past.
	stall      stallKind
	stallLine  uint64
	stallSince uint64
	stallOwed  uint64
}

// matchAddr returns the address this entry would be snooped on: the real
// address once known, else the predicted address for a live doppelganger.
func (e *lqEntry) matchAddr() (uint64, bool) {
	if e.addrValid {
		return e.addr, true
	}
	if e.predicted {
		return e.predAddr, true
	}
	return 0, false
}

// sqEntry is a store-queue slot.
type sqEntry struct {
	u     *uop
	valid bool

	addr          uint64
	addrValid     bool
	addrValidAt   uint64
	addrPending   bool
	addrTaintRoot uint64

	data      int64
	dataValid bool

	// violationChecked marks that the resolve-time load-queue snoop ran.
	violationChecked bool
}

// ring is a bounded FIFO of uops backed by a fixed slice (the ROB, LQ and
// SQ are all rings). Entries are addressed by absolute index so other
// structures can hold stable references. Indices wrap with a compare and
// subtract rather than a division.
type ring struct {
	head, count int
	size        int
}

func newRing(size int) ring { return ring{size: size} }

func (r *ring) full() bool  { return r.count == r.size }
func (r *ring) empty() bool { return r.count == 0 }
func (r *ring) len() int    { return r.count }

// wrap maps head+offset, for an offset in [0, size), to an absolute index.
func (r *ring) wrap(i int) int {
	if i >= r.size {
		i -= r.size
	}
	return i
}

// push allocates the next slot and returns its index.
func (r *ring) push() int {
	if r.full() {
		panic("pipeline: ring overflow")
	}
	i := r.wrap(r.head + r.count)
	r.count++
	return i
}

// popHead releases the oldest slot and returns its index.
func (r *ring) popHead() int {
	if r.empty() {
		panic("pipeline: ring underflow")
	}
	i := r.head
	r.head = r.wrap(r.head + 1)
	r.count--
	return i
}

// popTail releases the youngest slot and returns its index (squash path).
func (r *ring) popTail() int {
	if r.empty() {
		panic("pipeline: ring underflow")
	}
	r.count--
	return r.wrap(r.head + r.count)
}

// headIdx returns the index of the oldest slot.
func (r *ring) headIdx() int { return r.head }

// tailIdx returns the index of the youngest slot; the ring must not be
// empty.
func (r *ring) tailIdx() int { return r.wrap(r.head + r.count - 1) }

// at returns the absolute index of the i-th oldest element (0 = head).
func (r *ring) at(i int) int { return r.wrap(r.head + i) }

// bitset is a set of ring slots.
type bitset []uint64

// bitsetWords is the number of words a bitset of n slots takes.
func bitsetWords(n int) int { return (n + 63) / 64 }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// empty reports whether the set has no members.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the lowest member in [i, end), or end if there is none.
func (b bitset) next(i, end int) int {
	for i < end {
		if w := b[i>>6] >> (i & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w), end)
		}
		i = (i | 63) + 1
	}
	return end
}

// nextIn returns the age offset (0 = head) of the oldest member of b at
// offset off or younger among r's occupied slots, or r.len() if there is
// none. Walking a ring in age order this way costs one word test per 64
// slots, so members are found without visiting the rest; bits are re-read
// on every call, so a member added ahead of the walk is still visited.
func (b bitset) nextIn(r *ring, off int) int {
	for off < r.count {
		i := r.head + off
		end := r.head + r.count
		if i >= r.size {
			i -= r.size
			end -= r.size
		} else if end > r.size {
			end = r.size
		}
		if j := b.next(i, end); j < end {
			return off + j - i
		}
		off += end - i
	}
	return r.count
}
