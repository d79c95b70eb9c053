package mem

import (
	"fmt"

	"doppelganger/internal/obs"
)

// Class labels the origin of an access for statistics. The hierarchy treats
// all classes identically (the paper's point: doppelganger accesses are
// ordinary accesses); the labels exist only for the Figure 8 access counts.
type Class uint8

// Access classes.
const (
	ClassDemand       Class = iota // architecturally required load/store
	ClassDoppelganger              // address-predicted preload access
	ClassPrefetch                  // stride prefetcher access
	ClassWriteback                 // committed store traffic

	numClasses
)

// String names the class for stats output.
func (c Class) String() string {
	switch c {
	case ClassDemand:
		return "demand"
	case ClassDoppelganger:
		return "doppelganger"
	case ClassPrefetch:
		return "prefetch"
	case ClassWriteback:
		return "writeback"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Level identifies where in the hierarchy a request was satisfied.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// HierarchyConfig sizes the whole memory system. The defaults used by the
// experiments come from Table 1 of the paper (see core.DefaultConfig).
type HierarchyConfig struct {
	L1D CacheConfig
	L2  CacheConfig
	L3  CacheConfig
	// MemLatency is the additional round-trip latency of a DRAM access
	// beyond the L3 lookup, in cycles.
	MemLatency uint64
	// L1MSHRs bounds the number of outstanding L1 misses; further misses
	// are rejected and must be retried (the load stays in the queue).
	L1MSHRs int
}

// Validate checks all levels.
func (c HierarchyConfig) Validate() error {
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if err := c.L3.Validate(); err != nil {
		return fmt.Errorf("L3: %w", err)
	}
	if c.L1MSHRs <= 0 {
		return fmt.Errorf("L1MSHRs must be positive, got %d", c.L1MSHRs)
	}
	return nil
}

// mshr tracks one outstanding L1 miss. Prefetch fills are tracked so demand
// accesses can merge with them, but they do not count against the MSHR
// occupancy limit (modelling a separate prefetch queue).
type mshr struct {
	lineAddr uint64
	doneAt   uint64 // cycle at which the fill completes
	prefetch bool
}

// AccessResult describes the outcome of a memory request.
type AccessResult struct {
	// Latency is the round-trip latency in cycles (0 when Rejected or
	// DelayedMiss).
	Latency uint64
	// Level is where the request was satisfied.
	Level Level
	// Rejected means no MSHR was available; retry later.
	Rejected bool
	// DelayedMiss means a DoM speculative access missed in the L1 and was
	// therefore not performed (no state anywhere changed).
	DelayedMiss bool
	// Merged means the request hit an in-flight MSHR and shares its fill.
	Merged bool
}

// Hierarchy is the three-level cache system plus DRAM timing and L1 MSHRs.
// It is mostly-inclusive: fills insert into every level on the path.
type Hierarchy struct {
	cfg HierarchyConfig
	L1D *Cache
	L2  *Cache
	L3  *Cache

	mshrs []mshr
	// demand counts the non-prefetch entries of mshrs (the ones the
	// L1MSHRs limit applies to), kept in step with every change to mshrs.
	demand int
	// nextExpire caches the earliest doneAt among live MSHRs (^uint64(0)
	// when none), so the per-access expiry sweep is skipped until a fill
	// actually completes instead of walking the file on every request.
	nextExpire uint64

	// DRAMAccesses counts requests that reached main memory.
	DRAMAccesses uint64
	// DRAMWrites counts dirty lines written back to main memory.
	DRAMWrites uint64
	// Writebacks counts dirty-line evictions at each level (L1, L2, L3).
	Writebacks [3]uint64
	// RejectedMSHR counts requests turned away by a full MSHR file.
	RejectedMSHR uint64

	// mshrSig is a running digest of the MSHR allocation timeline: every
	// allocation folds in (cycle, line, completion, prefetch). Equal
	// digests mean the two runs' miss-handling occupancy was identical at
	// every cycle, since expiry is a deterministic function of the
	// allocations. See MSHRTimeline.
	mshrSig uint64

	// undo is the rollback journal for CleanupSpec-style undo schemes; nil
	// (the default) disables journaling entirely. See undo.go.
	undo *undoJournal

	// met holds optional live registry instruments; nil when no metrics
	// registry is attached (the default, and the zero-overhead path).
	met *hierMetrics
}

// hierMetrics caches direct instrument pointers so the Access hot path
// never performs a registry lookup. Counts accumulate in plain local
// accumulators and fold into the shared counters on FlushMetrics, so the
// hot path performs no atomic operations either.
type hierMetrics struct {
	hits   [4]*obs.Counter // satisfied at L1/L2/L3/mem
	misses [3]*obs.Counter // missed at L1/L2/L3
	hitN   [4]uint64       // pending (unflushed) hit counts
	missN  [3]uint64       // pending (unflushed) miss counts
}

// SetMetrics attaches a metrics registry: every subsequent access counts
// into sim_cache_hits_total / sim_cache_misses_total by level. Pass nil to
// detach (pending batched counts are flushed first).
func (h *Hierarchy) SetMetrics(m *obs.Metrics) {
	if m == nil {
		h.FlushMetrics()
		h.met = nil
		return
	}
	hm := &hierMetrics{}
	for lvl, name := range [...]string{"L1", "L2", "L3", "mem"} {
		hm.hits[lvl] = m.Counter("sim_cache_hits_total",
			"Memory requests satisfied at each hierarchy level.", obs.L("level", name))
	}
	for lvl, name := range [...]string{"L1", "L2", "L3"} {
		hm.misses[lvl] = m.Counter("sim_cache_misses_total",
			"Memory requests that missed at each cache level.", obs.L("level", name))
	}
	h.met = hm
}

// countAccess records a satisfied request into the live metrics, if any.
func (h *Hierarchy) countAccess(level Level) {
	hm := h.met
	if hm == nil {
		return
	}
	hm.hitN[level]++
	for l := LevelL1; l < level && int(l) < len(hm.missN); l++ {
		hm.missN[l]++
	}
}

// FlushMetrics folds the locally accumulated hit/miss counts into the
// registry counters. The core does this on every Run exit.
func (h *Hierarchy) FlushMetrics() {
	hm := h.met
	if hm == nil {
		return
	}
	for i, n := range hm.hitN {
		if n != 0 {
			hm.hits[i].Add(n)
			hm.hitN[i] = 0
		}
	}
	for i, n := range hm.missN {
		if n != 0 {
			hm.misses[i].Add(n)
			hm.missN[i] = 0
		}
	}
}

// NewHierarchy builds the memory system; invalid configuration panics.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: %v", err))
	}
	return &Hierarchy{
		cfg: cfg,
		L1D: NewCache(cfg.L1D),
		L2:  NewCache(cfg.L2),
		L3:  NewCache(cfg.L3),
		// Room for the demand MSHRs plus a cushion of prefetch fills
		// (which do not count against the limit).
		mshrs:      make([]mshr, 0, cfg.L1MSHRs+16),
		nextExpire: ^uint64(0),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// expire releases MSHRs whose fills have completed by cycle now. The sweep
// only runs once the earliest outstanding fill is actually due, so the
// common hit-stream case costs a single comparison.
func (h *Hierarchy) expire(now uint64) {
	if now < h.nextExpire {
		return
	}
	live := h.mshrs[:0]
	next := ^uint64(0)
	for _, m := range h.mshrs {
		if m.doneAt > now {
			live = append(live, m)
			if m.doneAt < next {
				next = m.doneAt
			}
		} else if !m.prefetch {
			h.demand--
		}
	}
	h.mshrs = live
	h.nextExpire = next
}

// findMSHR returns the in-flight miss covering the line, if any.
func (h *Hierarchy) findMSHR(lineAddr uint64) (mshr, bool) {
	for _, m := range h.mshrs {
		if m.lineAddr == lineAddr {
			return m, true
		}
	}
	return mshr{}, false
}

// ExpireFills releases the MSHRs whose fills have completed by cycle now:
// the sweep every Access starts with. No access's outcome depends on when
// it runs, but which completed fills the file still lists, and so a
// checkpoint of it (State), does. A caller that holds a rejected access
// back instead of retrying it calls this where the retry would have run,
// so the file evolves as it does under retrying.
func (h *Hierarchy) ExpireFills(now uint64) { h.expire(now) }

// OutstandingMisses reports the number of occupied demand L1 MSHRs at cycle
// now (prefetch fills excluded, as they do not count against the limit).
func (h *Hierarchy) OutstandingMisses(now uint64) int {
	h.expire(now)
	return h.demand
}

// AccessOptions modifies how a request is performed.
type AccessOptions struct {
	// DoMSpeculative makes the access a Delay-on-Miss speculative access:
	// an L1 miss is not performed at all (DelayedMiss result), and an L1
	// hit does not update replacement state (the core applies the update
	// at commit via TouchL1).
	DoMSpeculative bool
	// NoMSHR performs the access without allocating (or being limited by)
	// an L1 MSHR. Used for committed-store traffic, which this model
	// treats as bandwidth-free.
	NoMSHR bool
	// Write marks the access as a store: the L1 line is dirtied, and its
	// eventual eviction produces write-back traffic down the hierarchy.
	Write bool
	// Prefetch marks a prefetcher-initiated fill: it is dropped if the
	// line is already resident or in flight, and its fill is tracked in a
	// mergeable but non-limiting MSHR entry (a prefetch queue).
	Prefetch bool
	// UndoSeq, when non-zero on a hierarchy with an attached rollback
	// journal (EnableUndo), tags the access with the issuing instruction's
	// sequence number: every side effect is journaled so RollbackAfter can
	// revoke it on squash and RetireUpTo can finalise it at commit.
	// Instruction sequence numbers start at 1, so zero means untagged.
	UndoSeq uint64
}

// Access performs a memory request for the line containing addr at cycle
// now. Hits and misses update the caches; misses allocate an MSHR and fill
// all levels on the path, with the fill completing only after the full miss
// latency — lookups during the fill window merge with the in-flight MSHR.
// Writes are modelled with read-for-ownership timing (write-allocate),
// which is symmetric to reads at this fidelity.
func (h *Hierarchy) Access(now, addr uint64, class Class, opts AccessOptions) AccessResult {
	la := LineAddr(addr)
	h.expire(now)

	// j is non-nil only for a tagged speculative access on a hierarchy
	// with rollback journaling enabled; every state change below then
	// records its inverse.
	j := h.undo
	seq := opts.UndoSeq
	if seq == 0 {
		j = nil
	}

	// One L1 probe serves every decision below: the old flow re-walked the
	// set up to three times (Contains, Present, Access) per request.
	set1, way1, l1 := h.L1D.findWay(la)
	usable := l1 != nil && l1.readyAt <= now

	if opts.DoMSpeculative {
		// Probe only: on miss nothing anywhere may change (that is the
		// entire DoM guarantee), on hit the replacement update is delayed.
		if usable {
			h.L1D.countHit(l1, set1, way1, class, false, j, seq)
			h.countAccess(LevelL1)
			return AccessResult{Latency: h.cfg.L1D.Latency, Level: LevelL1}
		}
		return AccessResult{DelayedMiss: true}
	}

	if opts.Prefetch && l1 != nil {
		// The line is resident or already being filled: drop the prefetch.
		return AccessResult{Rejected: true}
	}

	// Decide miss handling before counting anything, so rejected requests
	// leave no trace in the access statistics.
	if !usable {
		if m, ok := h.findMSHR(la); ok {
			// Merge with the in-flight fill.
			h.L1D.countMiss(class, j, seq)
			lat := m.doneAt - now
			if lat < h.cfg.L1D.Latency {
				lat = h.cfg.L1D.Latency
			}
			h.countAccess(LevelL2)
			return AccessResult{Latency: lat, Level: LevelL2, Merged: true}
		}
		if !opts.NoMSHR && !opts.Prefetch && h.demand >= h.cfg.L1MSHRs {
			h.CountRejected(1, seq)
			return AccessResult{Rejected: true}
		}
	}

	if usable {
		h.L1D.countHit(l1, set1, way1, class, true, j, seq)
		if opts.Write {
			if j != nil && !l1.dirty {
				j.add(undoRec{seq: seq, kind: undoDirty, c: h.L1D,
					set: int32(set1), way: int32(way1), tag: l1.tag, prev: line{dirty: false}})
			}
			l1.dirty = true
		}
		h.countAccess(LevelL1)
		return AccessResult{Latency: h.cfg.L1D.Latency, Level: LevelL1}
	}
	h.L1D.countMiss(class, j, seq)

	latency := h.cfg.L1D.Latency
	level := LevelMem
	switch {
	case h.L2.access(la, now, class, true, j, seq):
		latency += h.cfg.L2.Latency
		level = LevelL2
	case h.L3.access(la, now, class, true, j, seq):
		latency += h.cfg.L2.Latency + h.cfg.L3.Latency
		level = LevelL3
	default:
		latency += h.cfg.L2.Latency + h.cfg.L3.Latency + h.cfg.MemLatency
		h.DRAMAccesses++
		if j != nil {
			j.add(undoRec{seq: seq, kind: undoDRAM})
		}
	}

	// Fill the path (mostly-inclusive); copies become usable when the data
	// arrives at the core. Dirty victims ripple write-back traffic down.
	fillAt := now + latency
	if ev, was, dirty := h.L1D.insert(la, fillAt, j, seq); was && dirty {
		h.noteWriteback(0, false, j, seq)
		h.writebackInto(h.L2, ev, fillAt, 1, j, seq)
	}
	if level == LevelL3 || level == LevelMem {
		if ev, was, dirty := h.L2.insert(la, fillAt, j, seq); was && dirty {
			h.noteWriteback(1, false, j, seq)
			h.writebackInto(h.L3, ev, fillAt, 2, j, seq)
		}
	}
	if level == LevelMem {
		if _, was, dirty := h.L3.insert(la, fillAt, j, seq); was && dirty {
			h.noteWriteback(2, true, j, seq)
		}
	}
	if opts.Write {
		h.L1D.markDirty(la, j, seq)
	}
	if !opts.NoMSHR {
		h.mshrs = append(h.mshrs, mshr{lineAddr: la, doneAt: fillAt, prefetch: opts.Prefetch})
		if !opts.Prefetch {
			h.demand++
		}
		if fillAt < h.nextExpire {
			h.nextExpire = fillAt
		}
		if j != nil {
			// The timeline digest cannot be unfolded, so the fold is
			// deferred: it applies when the record retires and is simply
			// dropped when the allocation is rolled back.
			j.add(undoRec{seq: seq, kind: undoMSHR,
				now: now, lineAddr: la, doneAt: fillAt, prefetch: opts.Prefetch})
		} else {
			h.noteMSHR(now, la, fillAt, opts.Prefetch)
		}
	}
	h.countAccess(level)
	return AccessResult{Latency: latency, Level: level}
}

// CountRejected counts n MSHR-full rejections of a demand or doppelganger
// access to the line. A caller that holds a rejected access back until
// MSHRStall says it may pass, instead of retrying it every cycle, credits
// here the retries the file would have turned away meanwhile. With a
// rollback journal attached and undoSeq non-zero, the count is journaled
// under undoSeq as Access's own rejections are.
func (h *Hierarchy) CountRejected(n, undoSeq uint64) {
	h.RejectedMSHR += n
	if h.undo != nil && undoSeq != 0 {
		h.undo.addRejects(undoSeq, n)
	}
}

// MSHRStall reports, without side effects, whether a demand or
// doppelganger access to addr at cycle now would be rejected by a full
// MSHR file (the line neither usable in the L1 nor covered by an
// outstanding fill). If so, until is the earliest later cycle at which,
// with no further access, it might not be: when an outstanding demand fill
// completes and frees its MSHR, or the line's L1 copy becomes usable. Only
// an access, a rollback or a restore can otherwise change the verdict, and
// then only by filling an MSHR or the L1 — for this line, or by rolling an
// allocation back.
func (h *Hierarchy) MSHRStall(now, addr uint64) (until uint64, stalled bool) {
	la := LineAddr(addr)
	until = ^uint64(0)
	if _, _, l := h.L1D.findWay(la); l != nil {
		if l.readyAt <= now {
			return 0, false
		}
		until = l.readyAt
	}
	demand := 0
	for _, m := range h.mshrs {
		if m.doneAt <= now {
			continue // expired: Access would sweep it first
		}
		if m.lineAddr == la {
			return 0, false // merges with the in-flight fill
		}
		if !m.prefetch {
			demand++
			until = min(until, m.doneAt)
		}
	}
	if demand < h.cfg.L1MSHRs {
		return 0, false
	}
	return until, true
}

// noteWriteback counts one dirty-line eviction at the given level (dram
// additionally counting the DRAM write), journaling the increments for a
// tagged speculative access.
func (h *Hierarchy) noteWriteback(level int, dram bool, j *undoJournal, seq uint64) {
	h.Writebacks[level]++
	if dram {
		h.DRAMWrites++
	}
	if j != nil {
		j.add(undoRec{seq: seq, kind: undoWriteback, level: uint8(level), dram: dram})
	}
}

// writebackInto deposits a dirty victim into the next level (marking it
// dirty there); if the next level misses, the line goes to memory. The
// ripple — nested inserts, their own victims, the dirty marks — journals
// under the same sequence number as the access that evicted the victim.
func (h *Hierarchy) writebackInto(next *Cache, addr, fillAt uint64, level int, j *undoJournal, seq uint64) {
	if next.Present(addr) {
		next.markDirty(addr, j, seq)
		return
	}
	if ev, was, dirty := next.insert(addr, fillAt, j, seq); was && dirty {
		if level == 1 {
			h.noteWriteback(level, false, j, seq)
			h.writebackInto(h.L3, ev, fillAt, 2, j, seq)
		} else {
			h.noteWriteback(level, true, j, seq)
		}
	}
	next.markDirty(addr, j, seq)
}

// noteMSHR folds one MSHR allocation into the timeline digest.
func (h *Hierarchy) noteMSHR(now, lineAddr, doneAt uint64, prefetch bool) {
	const prime = 1099511628211
	sig := h.mshrSig
	if sig == 0 {
		sig = 1469598103934665603
	}
	mix := func(v uint64) {
		sig ^= v
		sig *= prime
	}
	mix(now)
	mix(lineAddr)
	mix(doneAt)
	if prefetch {
		mix(1)
	} else {
		mix(2)
	}
	h.mshrSig = sig
}

// MSHRTimeline returns the MSHR allocation-timeline digest: a fingerprint
// of when every miss was allocated, which line it covered, and when its
// fill completed. An attacker co-resident on the core can observe MSHR
// occupancy through rejection back-pressure, so two runs must agree on this
// digest to be indistinguishable.
func (h *Hierarchy) MSHRTimeline() uint64 { return h.mshrSig }

// TrafficFingerprint digests the contention-observable traffic counters of
// the whole memory system: per-class access/hit/miss counts at every level,
// DRAM reads and writes, write-back traffic, and MSHR rejections.
func (h *Hierarchy) TrafficFingerprint() uint64 {
	const prime = 1099511628211
	sig := uint64(1469598103934665603)
	mix := func(v uint64) {
		sig ^= v
		sig *= prime
	}
	mix(h.L1D.StatsFingerprint())
	mix(h.L2.StatsFingerprint())
	mix(h.L3.StatsFingerprint())
	mix(h.DRAMAccesses)
	mix(h.DRAMWrites)
	for _, w := range h.Writebacks {
		mix(w)
	}
	mix(h.RejectedMSHR)
	return sig
}

// TouchL1 applies a delayed replacement update for a DoM speculative hit
// that has become non-speculative.
func (h *Hierarchy) TouchL1(addr uint64) { h.L1D.Touch(LineAddr(addr)) }

// ContainsL1 probes the L1 at cycle now without side effects.
func (h *Hierarchy) ContainsL1(addr uint64, now uint64) bool {
	return h.L1D.Contains(LineAddr(addr), now)
}

// PresentL1 reports whether the line is resident or being filled, without
// side effects (used to filter redundant prefetches).
func (h *Hierarchy) PresentL1(addr uint64) bool { return h.L1D.Present(LineAddr(addr)) }

// Invalidate removes the line from every level (external coherence
// invalidation) and reports whether any level held it.
func (h *Hierarchy) Invalidate(addr uint64) bool {
	la := LineAddr(addr)
	any := h.L1D.Invalidate(la)
	any = h.L2.Invalidate(la) || any
	return h.L3.Invalidate(la) || any
}

// ResetStats clears all statistics counters (but not cache contents), so
// warmup traffic is excluded from measurement.
func (h *Hierarchy) ResetStats() {
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.DRAMAccesses = 0
	h.DRAMWrites = 0
	h.Writebacks = [3]uint64{}
	h.RejectedMSHR = 0
}
