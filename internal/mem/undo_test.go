package mem

import "testing"

// undoHierarchy is tinyHierarchy with the rollback journal armed. Committed
// traffic goes through untagged accesses (UndoSeq 0, unjournaled);
// speculative traffic tags a sequence number.
func undoHierarchy(opts UndoOptions) *Hierarchy {
	h := tinyHierarchy()
	h.EnableUndo(opts)
	return h
}

// hierPrint captures everything rollback promises to restore: per-level
// content fingerprints, per-level stats counters, traffic totals, and the
// MSHR timeline digest.
type hierPrint struct {
	l1, l2, l3  uint64
	s1, s2, s3  uint64
	dram, dramW uint64
	wb          [3]uint64
	rejected    uint64
	sig         uint64
	outstanding int
}

func printOf(h *Hierarchy, now uint64) hierPrint {
	return hierPrint{
		l1: h.L1D.Fingerprint(now), l2: h.L2.Fingerprint(now), l3: h.L3.Fingerprint(now),
		s1: h.L1D.StatsFingerprint(), s2: h.L2.StatsFingerprint(), s3: h.L3.StatsFingerprint(),
		dram: h.DRAMAccesses, dramW: h.DRAMWrites,
		wb: h.Writebacks, rejected: h.RejectedMSHR,
		sig: h.MSHRTimeline(), outstanding: h.OutstandingMisses(now),
	}
}

// TestInsertDirtyInfoFillWindowInvariant pins the fill-window invariant of
// the shared insert path: re-inserting a present line may only ever move an
// in-flight readyAt EARLIER, mirroring the MSHR-merge rule that a second
// requester shares — and never delays — an existing fill. It also pins that
// the refresh reports no eviction, bumps recency, and leaves the dirty bit
// alone (the line's contents were not replaced).
func TestInsertDirtyInfoFillWindowInvariant(t *testing.T) {
	c := tinyCache()
	c.InsertDirtyInfo(0x1000, 100)
	// A later re-insert must not extend the in-flight window.
	if ev, was, dirty := c.InsertDirtyInfo(0x1000, 500); was || ev != 0 || dirty {
		t.Errorf("present-line re-insert reported an eviction: %#x/%t/%t", ev, was, dirty)
	}
	if !c.Contains(0x1000, 100) {
		t.Error("re-insert with a later readyAt delayed the in-flight fill")
	}
	// An earlier re-insert shortens the window.
	c.InsertDirtyInfo(0x1000, 50)
	if !c.Contains(0x1000, 50) {
		t.Error("re-insert with an earlier readyAt did not shorten the fill")
	}
	// The refresh counts as a use: the refreshed line must not be the
	// next victim. 0x1000 and 0x1100 share set 0 of the 4-set cache.
	c.InsertDirtyInfo(0x1100, 60)
	c.InsertDirtyInfo(0x1000, 70) // refresh: 0x1100 is now LRU
	if ev, was, _ := c.InsertDirtyInfo(0x1200, 80); !was || ev != 0x1100 {
		t.Errorf("evicted %#x (evicted=%t), want refresh-protected victim 0x1100", ev, was)
	}
	// A refresh preserves the dirty bit: refresh the dirty line, then age
	// it back to LRU and evict it — the eviction must still report dirty.
	c.MarkDirty(0x1000)
	c.InsertDirtyInfo(0x1000, 90)
	c.Access(0x1200, 92, ClassDemand, true) // 0x1000 back to LRU
	if ev, was, dirty := c.InsertDirtyInfo(0x1300, 95); !was || ev != 0x1000 || !dirty {
		t.Errorf("evicting refreshed dirty line: %#x/%t/dirty=%t, want 0x1000/true/true", ev, was, dirty)
	}

	// The same invariant observed through the hierarchy: an access that
	// merges into an in-flight MSHR sees the residual latency of the
	// original fill, and the fill completes at the original time.
	h := tinyHierarchy()
	r1 := h.Access(0, 0x20000, ClassDemand, AccessOptions{})
	r2 := h.Access(10, 0x20000, ClassDemand, AccessOptions{})
	if !r2.Merged {
		t.Fatalf("second access should merge: %+v", r2)
	}
	if want := r1.Latency - 10; r2.Latency != want {
		t.Errorf("merged latency = %d, want residual %d", r2.Latency, want)
	}
	if !h.ContainsL1(0x20000, r1.Latency) {
		t.Error("merge delayed the original fill completion")
	}
}

// TestUndoRollbackExactRestore drives journaled speculative traffic over a
// warmed hierarchy — LRU touches, fills into invalid ways, evictions of
// clean and dirty victims, writeback ripples, MSHR allocations, DRAM trips
// — and checks that RollbackAfter restores every observable exactly.
func TestUndoRollbackExactRestore(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	// Committed warm: fill L1 set 0 (8 sets x 2 ways; stride 512) and one
	// unrelated line; dirty one way so rollback must restore dirty bits.
	h.Access(0, 0x10000, ClassDemand, AccessOptions{})
	h.Access(200, 0x10200, ClassDemand, AccessOptions{})
	h.Access(400, 0x10000, ClassDemand, AccessOptions{Write: true, NoMSHR: true})
	h.Access(600, 0x30000, ClassDemand, AccessOptions{})

	const now = 5000 // all warm fills long complete, MSHRs expired
	before := printOf(h, now)

	// Speculative epoch seq=42: touch a resident line's recency, evict the
	// dirty LRU with a conflicting fill (writeback ripple into L2), miss to
	// a fresh region (DRAM trip), and dirty a resident line.
	spec := AccessOptions{UndoSeq: 42}
	h.Access(now, 0x10200, ClassDemand, spec)                                                    // L1 hit, LRU touch
	h.Access(now+1, 0x10400, ClassDemand, spec)                                                  // set-0 fill, evicts dirty victim
	h.Access(now+2, 0x50000, ClassDemand, spec)                                                  // cold miss, DRAM
	h.Access(now+3, 0x30000, ClassDemand, AccessOptions{UndoSeq: 42, Write: true, NoMSHR: true}) // dirty transition
	if h.UndoPending() == 0 {
		t.Fatal("speculative accesses recorded nothing")
	}

	h.RollbackAfter(41)
	if h.UndoPending() != 0 {
		t.Errorf("%d journal records survive a full rollback", h.UndoPending())
	}
	after := printOf(h, now)
	if after != before {
		t.Errorf("rollback did not restore the hierarchy:\nbefore %+v\nafter  %+v", before, after)
	}
	if h.PresentL1(0x10400) || h.PresentL1(0x50000) {
		t.Error("speculative fills survive rollback")
	}
	if !h.PresentL1(0x10000) {
		t.Error("evicted victim not reinstated")
	}
}

// TestUndoNestedEpochsOutOfOrderSquash rolls back two nested speculative
// epochs with two separate partial rollbacks — the younger epoch squashed
// first, then the older — and checks the state walks back exactly to each
// boundary.
func TestUndoNestedEpochsOutOfOrderSquash(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	h.Access(0, 0x10000, ClassDemand, AccessOptions{})
	h.Access(200, 0x10200, ClassDemand, AccessOptions{})

	const now = 5000
	base := printOf(h, now)

	// Epoch seq=10: evict 0x10000 (the set-0 LRU).
	h.Access(now, 0x10400, ClassDemand, AccessOptions{UndoSeq: 10})
	mid := printOf(h, now+1)

	// Nested epoch seq=20: evict again and touch.
	h.Access(now+1, 0x10600, ClassDemand, AccessOptions{UndoSeq: 20})
	h.Access(now+2, 0x10400, ClassDemand, AccessOptions{UndoSeq: 20})

	// Inner squash first: only epoch 20 unwinds.
	h.RollbackAfter(10)
	if got := printOf(h, now+1); got != mid {
		t.Errorf("inner rollback missed the epoch boundary:\nwant %+v\ngot  %+v", mid, got)
	}
	if !h.PresentL1(0x10400) {
		t.Error("outer epoch's fill must survive the inner rollback")
	}

	// Outer squash: back to the committed base.
	h.RollbackAfter(9)
	if got := printOf(h, now); got != base {
		t.Errorf("outer rollback missed the committed state:\nwant %+v\ngot  %+v", base, got)
	}
	if !h.PresentL1(0x10000) || h.PresentL1(0x10400) {
		t.Error("outer rollback restored the wrong lines")
	}
}

// TestUndoEvictAndRefillSameEpoch covers the reverse-walk discipline: within
// one epoch a resident line is evicted by a speculative fill and then
// re-filled by a later speculative miss. Undoing in reverse perform order
// must land back on the original contents.
func TestUndoEvictAndRefillSameEpoch(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	// Fill set 0 completely so every further fill evicts.
	h.Access(0, 0x10000, ClassDemand, AccessOptions{})
	h.Access(200, 0x10200, ClassDemand, AccessOptions{})

	const now = 5000
	base := printOf(h, now)

	spec := AccessOptions{UndoSeq: 7}
	h.Access(now, 0x10400, ClassDemand, spec)   // evicts LRU 0x10000
	h.Access(now+1, 0x10600, ClassDemand, spec) // evicts LRU 0x10200
	h.Access(now+2, 0x10000, ClassDemand, spec) // re-fills the first victim, evicting again
	if h.L1D.TotalMisses() < 3 {
		t.Fatalf("scenario expects three speculative misses, got %d", h.L1D.TotalMisses())
	}

	h.RollbackAfter(6)
	if got := printOf(h, now); got != base {
		t.Errorf("evict-and-refill rollback diverged:\nwant %+v\ngot  %+v", base, got)
	}
	if !h.PresentL1(0x10000) || !h.PresentL1(0x10200) || h.PresentL1(0x10400) || h.PresentL1(0x10600) {
		t.Error("wrong lines resident after evict-and-refill rollback")
	}
}

// TestUndoRetireUpTo pins retirement: records at or below the commit
// frontier pop (their deferred MSHR-timeline folds apply), younger records
// stay, and a retired prefix is no longer undoable.
func TestUndoRetireUpTo(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	h.Access(0, 0x10000, ClassDemand, AccessOptions{UndoSeq: 5})
	h.Access(10, 0x20000, ClassDemand, AccessOptions{UndoSeq: 9})
	if h.MSHRTimeline() != 0 {
		t.Error("MSHR timeline folded before retirement under undo")
	}
	pending := h.UndoPending()

	h.RetireUpTo(5)
	if h.UndoPending() >= pending {
		t.Errorf("retirement kept the journal at %d records", h.UndoPending())
	}
	if h.MSHRTimeline() == 0 {
		t.Error("retired MSHR allocation did not fold into the timeline")
	}
	sigAfterFirst := h.MSHRTimeline()

	// Rolling back now must keep the retired fill and undo the younger one.
	h.RollbackAfter(5)
	if !h.PresentL1(0x10000) {
		t.Error("retired fill was rolled back")
	}
	if h.PresentL1(0x20000) {
		t.Error("unretired fill survived rollback")
	}
	if h.MSHRTimeline() != sigAfterFirst {
		t.Error("rollback disturbed the retired MSHR timeline")
	}
}

// TestUndoMutationSkipLRUUndo pins the planted cleanup-no-lru-undo
// weakening: rollback restores contents but leaves speculative recency in
// place, so the victim-order fingerprint moves while the line set does not.
func TestUndoMutationSkipLRUUndo(t *testing.T) {
	h := undoHierarchy(UndoOptions{SkipLRUUndo: true})
	h.Access(0, 0x10000, ClassDemand, AccessOptions{})
	h.Access(200, 0x10200, ClassDemand, AccessOptions{})
	// Committed recency order: 0x10000 is LRU.
	const now = 5000
	before := h.L1D.Fingerprint(now)

	// Speculative hit on the LRU line bumps it to MRU; the weakened
	// rollback keeps that stamp.
	h.Access(now, 0x10000, ClassDemand, AccessOptions{UndoSeq: 3})
	h.RollbackAfter(2)
	if h.UndoPending() != 0 {
		t.Fatalf("%d records left", h.UndoPending())
	}
	if !h.PresentL1(0x10000) || !h.PresentL1(0x10200) {
		t.Error("contents must be intact under skip-lru-undo")
	}
	if h.L1D.Fingerprint(now) == before {
		t.Error("speculative recency must survive the weakened rollback (rank change expected)")
	}

	// The honest journal restores the rank too.
	h2 := undoHierarchy(UndoOptions{})
	h2.Access(0, 0x10000, ClassDemand, AccessOptions{})
	h2.Access(200, 0x10200, ClassDemand, AccessOptions{})
	ref := h2.L1D.Fingerprint(now)
	h2.Access(now, 0x10000, ClassDemand, AccessOptions{UndoSeq: 3})
	h2.RollbackAfter(2)
	if h2.L1D.Fingerprint(now) != ref {
		t.Error("intact rollback must restore the recency rank")
	}
}

// TestUndoMutationDropEvicted pins the planted cleanup-drop-evicted
// weakening: rollback of an evicting fill invalidates the way instead of
// reinstating the victim, leaving a hole where the victim was.
func TestUndoMutationDropEvicted(t *testing.T) {
	h := undoHierarchy(UndoOptions{DropEvicted: true})
	h.Access(0, 0x10000, ClassDemand, AccessOptions{})
	h.Access(200, 0x10200, ClassDemand, AccessOptions{})

	const now = 5000
	h.Access(now, 0x10400, ClassDemand, AccessOptions{UndoSeq: 3}) // evicts 0x10000
	h.RollbackAfter(2)
	if h.PresentL1(0x10400) {
		t.Error("speculative fill itself must still be undone")
	}
	if h.PresentL1(0x10000) {
		t.Error("dropped victim must NOT be reinstated under drop-evicted")
	}
	if !h.PresentL1(0x10200) {
		t.Error("uninvolved line disturbed")
	}
	// A fill into an invalid way rolls back identically to the intact
	// scheme (nothing was evicted, so there is nothing to drop).
	h.Access(now+100, 0x31000, ClassDemand, AccessOptions{UndoSeq: 5})
	h.RollbackAfter(4)
	if h.PresentL1(0x31000) {
		t.Error("invalid-way fill must be undone under drop-evicted")
	}
}

// TestUndoRandomReplacementRollback runs the eviction rollback under the
// L1 random-replacement experiment mode: whichever way the xorshift stream
// picked, the journal must reinstate that exact victim.
func TestUndoRandomReplacementRollback(t *testing.T) {
	cfg := tinyHierarchy().Config()
	cfg.L1D.RandomReplacement = true
	h := NewHierarchy(cfg)
	h.EnableUndo(UndoOptions{})

	h.Access(0, 0x10000, ClassDemand, AccessOptions{})
	h.Access(200, 0x10200, ClassDemand, AccessOptions{})
	const now = 5000
	before := printOf(h, now)

	h.Access(now, 0x10400, ClassDemand, AccessOptions{UndoSeq: 3}) // evicts a random way
	h.RollbackAfter(2)
	if got := printOf(h, now); got != before {
		t.Errorf("random-replacement rollback diverged:\nwant %+v\ngot  %+v", before, got)
	}
	if !h.PresentL1(0x10000) || !h.PresentL1(0x10200) || h.PresentL1(0x10400) {
		t.Error("wrong lines resident after random-replacement rollback")
	}
}

// TestUndoJournalBoundedUnderContinuousSpeculation drives 10^6 journaled
// accesses with the commit frontier trailing issue, so the journal never
// fully drains, and checks that its backing capacity tracks the pending
// high-water mark instead of the run length.
func TestUndoJournalBoundedUnderContinuousSpeculation(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	const accesses = 1_000_000
	x := uint64(1) // xorshift64 address stream
	hw := 0
	for seq := uint64(1); seq <= accesses; seq++ {
		// A 32 KiB region over the 1 KiB L1 mixes hits, recency touches,
		// evictions, write-backs, DRAM trips and MSHR-full rejections.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := 0x10000 + x%512*64
		opts := AccessOptions{UndoSeq: seq}
		if seq%7 == 0 {
			opts.Write, opts.NoMSHR = true, true
		}
		h.Access(seq*40, addr, ClassDemand, opts)
		hw = max(hw, h.UndoPending())
		// The frontier trails issue by 1..32 instructions; now and then a
		// squash unwinds part of the in-flight window.
		lag := 1 + seq%32
		if seq%101 == 0 {
			h.RollbackAfter(seq - lag/2)
		}
		if seq > lag {
			h.RetireUpTo(seq - lag)
		}
		if h.UndoPending() == 0 {
			t.Fatalf("access %d: journal drained; the scenario must keep it live", seq)
		}
		if c := cap(h.undo.recs); c > 4*hw+256 {
			t.Fatalf("access %d: journal capacity %d exceeds 4 x pending high-water %d + 256", seq, c, hw)
		}
	}
}

// TestUndoRollbackAcrossCompaction rolls back a speculative epoch during
// which the journal slid its live window to index 0 (a compaction point
// between the epoch's own records) and checks that rollback still restores
// every observable exactly and keeps the older live records.
func TestUndoRollbackAcrossCompaction(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	j := h.undo
	// Continuous speculation: each access retires its predecessor's records,
	// so the journal never drains and the retired prefix piles up until the
	// slice is nearly full.
	seq, now := uint64(0), uint64(0)
	for len(j.recs) < cap(j.recs)-24 {
		seq++
		now += 300
		h.Access(now, 0x10000+seq*0x240, ClassDemand, AccessOptions{UndoSeq: seq})
		h.RetireUpTo(seq - 1)
	}
	now += 5000 // all fills long complete, MSHRs expired
	before := printOf(h, now)
	live := h.UndoPending()

	// Epoch seq+1 overflows the slice: its first records land before the
	// slide, the rest after it. Its misses are spaced past the fill
	// latency, so each takes an MSHR instead of being turned away (a
	// rejection is tallied, not logged).
	spec := AccessOptions{UndoSeq: seq + 1}
	h.Access(now, 0x50000, ClassDemand, spec)
	if j.head == 0 {
		t.Fatal("journal slid before the epoch began")
	}
	at := now
	for i := uint64(1); j.head != 0; i++ {
		if i > 64 {
			t.Fatal("journal never slid its live window")
		}
		at += 300
		h.Access(at, 0x50000+i*0x240, ClassDemand, spec)
	}
	h.Access(at+100, 0x10200, ClassDemand, AccessOptions{UndoSeq: seq + 1, Write: true, NoMSHR: true})

	h.RollbackAfter(seq)
	if got := printOf(h, now); got != before {
		t.Errorf("rollback across the compaction point diverged:\nbefore %+v\nafter  %+v", before, got)
	}
	if h.UndoPending() != live {
		t.Errorf("%d live records after rollback, want the %d that predate the epoch", h.UndoPending(), live)
	}
}

// TestDemandMSHRCountMatchesRecount drives a random mix of demand,
// prefetch and write accesses with expiry, partial rollbacks, retirement
// and checkpoint restores, and checks after every step that the O(1)
// demand-MSHR count equals a walk of the MSHR file.
func TestDemandMSHRCountMatchesRecount(t *testing.T) {
	recount := func(h *Hierarchy) int {
		n := 0
		for _, m := range h.mshrs {
			if !m.prefetch {
				n++
			}
		}
		return n
	}
	h := undoHierarchy(UndoOptions{})
	x := uint64(7) // xorshift64 stream
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	now, retired, restores, rejected := uint64(0), uint64(0), 0, uint64(0)
	for seq := uint64(1); seq <= 20_000; seq++ {
		now += next() % 24 // bursts of same-cycle requests and idle gaps
		opts := AccessOptions{UndoSeq: seq}
		switch next() % 8 {
		case 0:
			opts.Prefetch = true
		case 1:
			opts.Write, opts.NoMSHR = true, true
		case 2:
			opts.UndoSeq = 0 // committed traffic, never journaled
		}
		class := ClassDemand
		if opts.Prefetch {
			class = ClassPrefetch
		}
		h.Access(now, 0x10000+next()%1024*64, class, opts)
		switch r := next() % 64; {
		case r < 3:
			h.RollbackAfter(max(retired, seq-next()%16))
		case r < 24:
			retired = max(retired, seq-next()%8)
			h.RetireUpTo(retired)
		case r == 63:
			// Drain the journal, then continue on a hierarchy restored
			// from this one's checkpoint, over misses of its own.
			h.RetireUpTo(seq)
			retired = seq
			g := undoHierarchy(UndoOptions{})
			g.Access(now, 0x90000, ClassDemand, AccessOptions{})
			g.Access(now, 0x90040, ClassDemand, AccessOptions{})
			if err := g.Restore(h.State()); err != nil {
				t.Fatal(err)
			}
			h = g
			restores++
		}
		if got, want := h.demand, recount(h); got != want {
			t.Fatalf("step %d: demand count %d, recount %d", seq, got, want)
		}
		if h.OutstandingMisses(now) != recount(h) {
			t.Fatalf("step %d: OutstandingMisses disagrees with a recount after expiry", seq)
		}
		rejected = h.RejectedMSHR
	}
	if restores == 0 || rejected == 0 {
		t.Fatalf("scenario too tame: %d restores, %d MSHR rejections", restores, rejected)
	}
}

// TestRejectedRetriesRollBackWithTheirLoad pins the journal's rejection
// tally: the MSHR-full retries of a squashed instruction — turned away by
// Access or credited in one sum by CountRejected — leave RejectedMSHR as if
// they were never made, a surviving instruction's retries stay once
// retired, and however long a stall lasts it holds one journal entry.
func TestRejectedRetriesRollBackWithTheirLoad(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	twin := undoHierarchy(UndoOptions{}) // never makes instruction 4's retries
	for _, g := range []*Hierarchy{h, twin} {
		// Two misses fill the two-entry MSHR file until cycle 114.
		g.Access(0, 0x10000, ClassDemand, AccessOptions{UndoSeq: 1})
		g.Access(0, 0x20000, ClassDemand, AccessOptions{UndoSeq: 2})
	}
	base := h.UndoPending()
	for now := uint64(1); now <= 5; now++ {
		for _, g := range []*Hierarchy{h, twin} {
			if r := g.Access(now, 0x30000, ClassDemand, AccessOptions{UndoSeq: 3}); !r.Rejected {
				t.Fatalf("cycle %d: access with a full MSHR file was not rejected", now)
			}
		}
		if r := h.Access(now, 0x40000, ClassDoppelganger, AccessOptions{UndoSeq: 4}); !r.Rejected {
			t.Fatalf("cycle %d: doppelganger access with a full MSHR file was not rejected", now)
		}
	}
	h.CountRejected(10, 3)
	twin.CountRejected(10, 3)
	h.CountRejected(1000, 4)
	if h.RejectedMSHR != 5+10+5+1000 {
		t.Fatalf("RejectedMSHR = %d, want %d", h.RejectedMSHR, 5+10+5+1000)
	}
	if got := h.UndoPending() - base; got != 2 {
		t.Errorf("two stalled instructions hold %d journal entries, want one tally each", got)
	}

	h.RollbackAfter(3)
	if got, want := printOf(h, 6), printOf(twin, 6); got != want {
		t.Errorf("rolling back instruction 4 left a trace of its retries:\ngot  %+v\nwant %+v", got, want)
	}
	h.RetireUpTo(3)
	if h.RejectedMSHR != 15 {
		t.Errorf("retired retries: RejectedMSHR = %d, want 15", h.RejectedMSHR)
	}
	if h.UndoPending() != 0 {
		t.Errorf("%d journal entries pending after retiring every instruction", h.UndoPending())
	}
	h.RollbackAfter(0)
	if h.RejectedMSHR != 15 {
		t.Errorf("a rollback after retirement took back retired retries: RejectedMSHR = %d", h.RejectedMSHR)
	}
}

// TestUndoRecordsPerAccessBound drives tagged accesses whose fills evict
// dirty lines at every level and checks that no single access logs more
// than UndoRecordsPerAccess records, the bound the pipeline's journal-depth
// invariant is built on.
func TestUndoRecordsPerAccessBound(t *testing.T) {
	h := undoHierarchy(UndoOptions{})
	x := uint64(7)
	peak := 0
	for seq := uint64(1); seq <= 200_000; seq++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// A 1 MiB region over the 64 KiB L3: most accesses miss to DRAM,
		// and every other one dirties its line.
		addr := 0x100000 + x%(1<<14)*64
		opts := AccessOptions{UndoSeq: seq, Write: seq%2 == 0}
		if x%5 == 0 {
			opts.Prefetch = true
		}
		before := len(h.undo.recs)
		h.Access(seq*200, addr, ClassDemand, opts)
		n := len(h.undo.recs) - before
		if before > len(h.undo.recs) {
			n = len(h.undo.recs) // the live window slid to index 0
		}
		peak = max(peak, n)
		h.RetireUpTo(seq)
	}
	if peak > UndoRecordsPerAccess {
		t.Fatalf("one access logged %d records, over UndoRecordsPerAccess = %d", peak, UndoRecordsPerAccess)
	}
	if peak < 12 {
		t.Fatalf("scenario too tame: at most %d records per access", peak)
	}
}
