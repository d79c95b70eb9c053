// Package mem models the memory hierarchy: set-associative caches with LRU
// replacement, fill-time-aware lines, and MSHR-limited miss handling,
// composed into a three-level hierarchy (L1D, private L2, shared L3) in
// front of DRAM.
//
// Caches hold timing state only (tags, recency, fill time); data values
// live in the simulator's backing store. A line inserted by a miss is not
// usable until its fill completes: lookups during the fill window are
// misses, which the hierarchy satisfies by merging with the in-flight MSHR.
// This matches the paper's requirement that doppelganger accesses behave
// exactly like ordinary accesses with *no* modifications to the hierarchy —
// the only special mode is Delay-on-Miss's speculative probe, which is a
// property of how the core issues requests, not of the caches themselves.
//
// A cache's storage grows with the sets a run fills, not with its capacity:
// ways are allocated a chunk of consecutive sets at a time on the first fill
// into the chunk, from segments that grow geometrically, so a fresh core and
// a short run (a leakage gadget) cost in proportion to what they touch, and
// a run that fills a whole level allocates each way once. Unfilled sets read
// as all-invalid everywhere, including the fingerprints and checkpoints.
// Reset empties a cache for its next run and keeps the storage: the chunks
// the last run filled are zeroed onto a free list that later fills take
// from first, so a cache reused across short runs allocates nothing.
//
// Each chunk also keeps an occupancy word, one bit per set, set when a fill
// (or a restored non-zero line) first writes the set. A set whose bit is
// clear is all-zero, so the fingerprints, State and Reset visit only the
// sets a run wrote, not every set of every chunk it touched.
package mem

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes. Addresses are mapped to lines
// by dropping the low bits.
const LineSize = 64

// LineAddr returns the line-aligned address.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// CacheConfig sizes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// Latency is the round-trip access latency in cycles for a hit at
	// this level.
	Latency uint64
	// RandomReplacement selects random (deterministic xorshift) victim
	// choice instead of LRU when a full set must evict. CleanupSpec pairs
	// its rollback with L1 random replacement to cheapen recency
	// restoration; this knob reproduces that design point as an opt-in
	// experiment mode (recency is still tracked for the fingerprint). The
	// field is omitted from encodings when false so existing engine cache
	// keys and checkpoints are unchanged.
	RandomReplacement bool `json:",omitempty"`
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (LineSize * c.Ways) }

// Validate reports configuration errors (non-power-of-two set counts, etc.).
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: cache size %d / ways %d must be positive", c.SizeBytes, c.Ways)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*LineSize != c.SizeBytes {
		return fmt.Errorf("mem: size %dB not divisible into %d-way sets of %dB lines",
			c.SizeBytes, c.Ways, LineSize)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d is not a power of two", sets)
	}
	return nil
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool   // written since fill; eviction produces writeback traffic
	lastUse uint64 // recency timestamp for LRU
	readyAt uint64 // cycle the fill completes; hits require readyAt <= now
}

// chunkShift sizes the unit of allocation: a chunk is 1<<chunkShift
// consecutive sets (all of them, in a cache with fewer sets).
const chunkShift = 6

// firstChunks is a cache's first segment of storage, in chunks. It holds a
// leakage gadget's footprint (2–15 chunks of the default L2 and 4–15 of its
// L3 for 99.7% of generated gadgets), so a short run allocates once per
// level. Each later segment holds three times the chunks allocated before
// it, capped at the rest of the level: storage is at most four times the
// chunks a run fills (a gadget that fills 17 chunks of L3 allocates 64, not
// all 256), the default L3 takes at most three segments (16, 48 and 192
// chunks), and no way is ever copied or allocated twice.
const firstChunks = 16

// keptChunks bounds the storage of a cache that still counts as a short
// run's (Outgrown): its first two segments, 16 and 48 chunks, which is
// the whole default L2 and 2 MB of the default L3. A leakage gadget that
// fills more than its first segment (about a third of a campaign's runs
// do) stays under it, while a test- or full-scale kernel fills the
// default L3 completely and goes past it.
const keptChunks = 4 * firstChunks

// Cache is one set-associative, LRU-replacement cache level.
//
// Storage grows with the sets a run fills. chunks holds each chunk of
// consecutive sets: its ways, nil until the chunk is first filled (every
// way invalid), and its occupancy word. A chunk's ways come from the free
// list, or else are carved from the newest segment of storage, and stay
// where they are until Reset returns them to the free list. Only insert
// (and Restore) fills a chunk.
type Cache struct {
	cfg        CacheConfig
	chunks     []chunk
	free       [][]line // zeroed chunks' ways, returned by Reset
	spare      []line   // the newest segment's lines not yet given to a chunk
	filled     int      // chunks carved from segments
	ways       int
	chunkShift uint   // log2 of the sets per chunk
	chunkMask  uint64 // sets per chunk - 1
	setMask    uint64
	tagShift   uint
	clock      uint64 // monotonically increasing recency stamp
	rng        uint64 // xorshift64 victim-choice state (RandomReplacement only)

	// Stats, by access class.
	Accesses [numClasses]uint64
	Hits     [numClasses]uint64
	Misses   [numClasses]uint64
}

// NewCache builds a cache; invalid configurations panic since they are
// programming errors in experiment setup.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		rng:     rngSeed,
	}
	for s := uint64(sets); s > 1; s >>= 1 {
		c.tagShift++
	}
	c.chunkShift = min(c.tagShift, chunkShift)
	c.chunkMask = 1<<c.chunkShift - 1
	c.chunks = make([]chunk, sets>>c.chunkShift)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	la := LineAddr(addr) / LineSize
	return la & c.setMask, la >> c.tagShift
}

// chunk is one chunk of consecutive sets. Bit s of occupied is set when
// set s may hold a non-zero line: insert and Restore set it when they
// write the set, and only Reset clears it. The bits are sticky (a rollback
// or Invalidate that empties a set leaves its bit), so the invariant is
// one-sided: a set whose bit is clear is all-zero. chunkShift is at most
// 6, so one word covers a chunk.
type chunk struct {
	ways     []line
	occupied uint64
}

// setWays returns the set's ways, or nil when its chunk was never filled.
func (c *Cache) setWays(set uint64) []line {
	ways := c.chunks[set>>c.chunkShift].ways
	if ways == nil {
		return nil
	}
	i := int(set&c.chunkMask) * c.ways
	return ways[i : i+c.ways : i+c.ways]
}

// fillChunk gives the set's chunk its ways, every way invalid, and returns
// the set's ways. A free chunk is taken first; a new segment is allocated
// only when the free list and the newest segment are both used up. Every
// chunk carved is in use or free, so a segment never outgrows the level.
func (c *Cache) fillChunk(set uint64) []line {
	var ways []line
	if n := len(c.free); n > 0 {
		ways, c.free = c.free[n-1], c.free[:n-1]
	} else {
		chunkLines := int(c.chunkMask+1) * c.ways
		if len(c.spare) == 0 {
			n := min(len(c.chunks)-c.filled, max(firstChunks, 3*c.filled))
			c.spare = make([]line, n*chunkLines)
		}
		ways, c.spare = c.spare[:chunkLines:chunkLines], c.spare[chunkLines:]
		c.filled++
	}
	c.chunks[set>>c.chunkShift].ways = ways
	return c.setWays(set)
}

// occupy marks the set as possibly holding a non-zero line.
func (c *Cache) occupy(set uint64) {
	c.chunks[set>>c.chunkShift].occupied |= 1 << (set & c.chunkMask)
}

// Reset returns the cache to the state NewCache builds: every set
// unfilled, the recency clock and victim-choice stream at their start, and
// the statistics zero. The filled chunks' ways are zeroed and kept on the
// free list for the next run's fills; only the occupied sets are cleared,
// since every other set is already zero.
func (c *Cache) Reset() {
	for k := range c.chunks {
		ch := &c.chunks[k]
		if ch.ways == nil {
			continue
		}
		for occ := ch.occupied; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ) * c.ways
			clear(ch.ways[s : s+c.ways])
		}
		c.free = append(c.free, ch.ways)
		*ch = chunk{}
	}
	c.clock = 0
	c.rng = rngSeed
	c.ResetStats()
}

// Outgrown reports whether the cache's storage grew past its second
// segment (keptChunks): more than a short run (a leakage gadget) fills.
func (c *Cache) Outgrown() bool { return c.filled > keptChunks }

// way returns the line at journaled coordinates. Its chunk is allocated:
// records are only made for ways a lookup found or insert filled.
func (c *Cache) way(set, way int32) *line { return &c.setWays(uint64(set))[way] }

// eachOccupiedSet calls fn, in set order, for every set whose occupancy
// bit is set; every other set is all-zero.
func (c *Cache) eachOccupiedSet(fn func(set int, ways []line)) {
	for k := range c.chunks {
		ch := &c.chunks[k]
		for occ := ch.occupied; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ)
			fn(k<<c.chunkShift+s, ch.ways[s*c.ways:(s+1)*c.ways])
		}
	}
}

func (c *Cache) find(addr uint64) *line {
	_, _, l := c.findWay(addr)
	return l
}

// findWay is find, additionally reporting the way coordinates the rollback
// journal validates against. way is -1 on a miss.
func (c *Cache) findWay(addr uint64) (set, way int, l *line) {
	s, tag := c.index(addr)
	ws := c.setWays(s)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			return int(s), i, &ws[i]
		}
	}
	return int(s), -1, nil
}

// rngSeed starts every cache's xorshift64 victim-choice stream at the same
// well-mixed point, so random-replacement runs are reproducible.
const rngSeed = 0x9E3779B97F4A7C15

// nextRand steps the deterministic xorshift64 stream (RandomReplacement).
func (c *Cache) nextRand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// Contains probes for a usable (fill-complete) line without changing any
// state — no recency update, no statistics. Used for DoM's speculative L1
// probe, prefetch filtering, and tests.
func (c *Cache) Contains(addr uint64, now uint64) bool {
	l := c.find(addr)
	return l != nil && l.readyAt <= now
}

// Present reports whether the line is resident or in flight, regardless of
// fill completion. No state changes.
func (c *Cache) Present(addr uint64) bool { return c.find(addr) != nil }

// MarkDirty flags the line as modified, if present.
func (c *Cache) MarkDirty(addr uint64) {
	c.markDirty(addr, nil, 0)
}

// markDirty is MarkDirty with an optional rollback journal recording the
// dirty-bit transition of a tagged speculative access.
func (c *Cache) markDirty(addr uint64, j *undoJournal, seq uint64) {
	set, way, l := c.findWay(addr)
	if l == nil {
		return
	}
	if j != nil && !l.dirty {
		j.add(undoRec{seq: seq, kind: undoDirty, c: c, set: int32(set), way: int32(way),
			tag: l.tag, prev: line{dirty: false}})
	}
	l.dirty = true
}

// Touch updates the recency of the line if present and reports whether it
// was. Used to apply DoM's delayed replacement updates at commit.
func (c *Cache) Touch(addr uint64) bool {
	if l := c.find(addr); l != nil {
		c.clock++
		l.lastUse = c.clock
		return true
	}
	return false
}

// Access looks the line up at cycle now, counting statistics for the given
// class. A line whose fill has not completed counts as a miss (the caller
// merges with the in-flight MSHR). On a hit the recency is updated unless
// updateLRU is false (DoM delayed replacement). It reports whether the
// access hit.
func (c *Cache) Access(addr uint64, now uint64, class Class, updateLRU bool) bool {
	return c.access(addr, now, class, updateLRU, nil, 0)
}

// access is Access with an optional rollback journal: a tagged speculative
// access (j non-nil) journals its counter update and recency touch so a
// squash can revoke them.
func (c *Cache) access(addr, now uint64, class Class, updateLRU bool, j *undoJournal, seq uint64) bool {
	set, way, l := c.findWay(addr)
	if l != nil && l.readyAt <= now {
		c.countHit(l, set, way, class, updateLRU, j, seq)
		return true
	}
	c.countMiss(class, j, seq)
	return false
}

// countHit records a hit for a line already located via findWay, optionally
// refreshing its recency. Together with countMiss it is the counting half
// of Access, for callers that probe once and branch on the outcome
// themselves instead of paying a second set walk. A non-nil journal records
// the counter update and the touch for squash-time rollback.
func (c *Cache) countHit(l *line, set, way int, class Class, updateLRU bool, j *undoJournal, seq uint64) {
	c.Accesses[class]++
	if updateLRU {
		if j != nil {
			j.add(undoRec{seq: seq, kind: undoTouch, c: c, set: int32(set), way: int32(way),
				tag: l.tag, stamp: c.clock + 1, prev: line{lastUse: l.lastUse}})
		}
		c.clock++
		l.lastUse = c.clock
	}
	c.Hits[class]++
	if j != nil {
		j.add(undoRec{seq: seq, kind: undoStats, c: c, class: class, hit: true})
	}
}

// countMiss records a miss for callers that already probed with find.
func (c *Cache) countMiss(class Class, j *undoJournal, seq uint64) {
	c.Accesses[class]++
	c.Misses[class]++
	if j != nil {
		j.add(undoRec{seq: seq, kind: undoStats, c: c, class: class, hit: false})
	}
}

// Insert fills the line with the given fill-completion time, evicting the
// LRU way if the set is full. It returns the evicted line address and
// whether the eviction was of a dirty line (a writeback). Re-inserting a
// present line refreshes its recency and, if the line was still in flight,
// moves its ready time earlier (never later).
func (c *Cache) Insert(addr uint64, readyAt uint64) (evicted uint64, wasEvicted bool) {
	ev, was, _ := c.InsertDirtyInfo(addr, readyAt)
	return ev, was
}

// InsertDirtyInfo is Insert, additionally reporting whether the evicted
// line was dirty (needs writing back to the next level).
func (c *Cache) InsertDirtyInfo(addr uint64, readyAt uint64) (evicted uint64, wasEvicted, evictedDirty bool) {
	return c.insert(addr, readyAt, nil, 0)
}

// insert is the one fill path, shared by the plain and journaled callers so
// their semantics cannot drift. The three outcomes — refreshing a present
// line (which may only ever move an in-flight readyAt *earlier*, matching
// the MSHR-merge rule that a second requester shares, never delays, an
// existing fill), taking an invalid way, or evicting a victim — all record
// a single undoFill carrying the way's complete prior contents, so rollback
// uniformly re-invalidates, un-refreshes, or reinstates.
func (c *Cache) insert(addr, readyAt uint64, j *undoJournal, seq uint64) (evicted uint64, wasEvicted, evictedDirty bool) {
	set, tag := c.index(addr)
	ways := c.setWays(set)
	if ways == nil {
		ways = c.fillChunk(set)
	}
	c.occupy(set)
	c.clock++
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			if j != nil {
				j.add(undoRec{seq: seq, kind: undoFill, c: c, set: int32(set), way: int32(i),
					tag: tag, stamp: c.clock, prev: ways[i]})
			}
			ways[i].lastUse = c.clock
			if readyAt < ways[i].readyAt {
				ways[i].readyAt = readyAt
			}
			return 0, false, false
		}
	}
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		if c.cfg.RandomReplacement {
			victim = int(c.nextRand() % uint64(len(ways)))
		} else {
			victim = 0
			for i := 1; i < len(ways); i++ {
				if ways[i].lastUse < ways[victim].lastUse {
					victim = i
				}
			}
		}
		evicted = c.lineAddr(set, ways[victim].tag)
		evictedDirty = ways[victim].dirty
		wasEvicted = true
	}
	if j != nil {
		j.add(undoRec{seq: seq, kind: undoFill, c: c, set: int32(set), way: int32(victim),
			tag: tag, stamp: c.clock, prev: ways[victim]})
	}
	ways[victim] = line{tag: tag, valid: true, lastUse: c.clock, readyAt: readyAt}
	return evicted, wasEvicted, evictedDirty
}

// Invalidate removes the line if present (coherence invalidation), and
// reports whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	if l := c.find(addr); l != nil {
		l.valid = false
		return true
	}
	return false
}

func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return ((tag << c.tagShift) | set) * LineSize
}

// TotalAccesses sums accesses over all classes.
func (c *Cache) TotalAccesses() uint64 {
	var t uint64
	for _, v := range c.Accesses {
		t += v
	}
	return t
}

// TotalMisses sums misses over all classes.
func (c *Cache) TotalMisses() uint64 {
	var t uint64
	for _, v := range c.Misses {
		t += v
	}
	return t
}

// Fingerprint digests the attacker-observable contents of the cache at
// cycle now: for every resident line, its set, tag, dirty bit, LRU rank
// within the set, and whether its fill is still in flight. This is exactly
// the state a prime+probe/flush+reload attacker can reconstruct — presence,
// eviction order, and write-back behaviour — so two runs with equal
// fingerprints are indistinguishable through this cache. Raw recency
// timestamps are deliberately reduced to ranks: absolute access counts are
// already captured by the access statistics.
//
// Lines fold in recency-rank order within each set, not physical way order:
// the way a line happens to occupy is invisible to a prime+probe attacker,
// and under an undo scheme a rolled-back speculative fill can legitimately
// shift which way a later (architectural) fill lands in without changing
// anything observable. Rank order is well-defined because recency stamps
// are unique per cache (the clock advances once per stamp, and rollback
// only ever resurrects a stamp whose holder was evicted).
func (c *Cache) Fingerprint(now uint64) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	c.eachOccupiedSet(func(si int, set []line) {
		valid := 0
		for wi := range set {
			if set[wi].valid {
				valid++
			}
		}
		prevUse := uint64(0)
		for rank := 0; rank < valid; rank++ {
			var l *line
			for wi := range set {
				cand := &set[wi]
				if !cand.valid || (rank > 0 && cand.lastUse <= prevUse) {
					continue
				}
				if l == nil || cand.lastUse < l.lastUse {
					l = cand
				}
			}
			prevUse = l.lastUse
			mix(uint64(si))
			mix(l.tag)
			mix(uint64(rank))
			var bits uint64
			if l.dirty {
				bits |= 1
			}
			if l.readyAt > now {
				bits |= 2
			}
			mix(bits)
		}
	})
	return h
}

// OccupiedSets folds the cache's valid-line footprint into a 64-bit set
// bitmap: bit (s mod 64) is set when set s holds at least one valid line.
// It is a post-run coverage summary for campaign-mode fuzzing — *where* in
// the cache a run left state, at far coarser grain than Fingerprint — and
// costs nothing on the access path.
func (c *Cache) OccupiedSets() uint64 {
	var bits uint64
	c.eachOccupiedSet(func(si int, set []line) {
		for wi := range set {
			if set[wi].valid {
				bits |= 1 << (uint(si) % 64)
				break
			}
		}
	})
	return bits
}

// StatsFingerprint digests the per-class access counters — the traffic an
// attacker sharing the cache can observe through contention.
func (c *Cache) StatsFingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for cl := 0; cl < int(numClasses); cl++ {
		mix(c.Accesses[cl])
		mix(c.Hits[cl])
		mix(c.Misses[cl])
	}
	return h
}

// ResetStats zeroes the statistics counters without disturbing contents,
// so warmup traffic can be excluded from measurement.
func (c *Cache) ResetStats() {
	c.Accesses = [numClasses]uint64{}
	c.Hits = [numClasses]uint64{}
	c.Misses = [numClasses]uint64{}
}
