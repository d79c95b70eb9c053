package mem

import (
	"reflect"
	"testing"
)

// The tests in this file pin that allocating ways on first fill is
// invisible: a never-filled set reads as all-invalid ways everywhere, and
// growing storage from its first segment to the whole level changes no
// line already held.

// bigCacheConfig has 64 chunks of storage (4096 sets x 2 ways), more than
// the first segment holds, so a test can cross the growth.
var bigCacheConfig = CacheConfig{SizeBytes: 512 << 10, Ways: 2, Latency: 5}

// chunkAddr is the address of tag t in set s of the given chunk of a cache
// with the given set count.
func chunkAddr(sets, chunk, s, t uint64) uint64 {
	return (t*sets + chunk<<chunkShift | s) * LineSize
}

// storedChunks counts the chunks the cache's segments can hold, allocated
// to a set or not.
func storedChunks(c *Cache) int { return c.filled + len(c.spare)/(c.ways<<c.chunkShift) }

func TestUntouchedCacheStateIsZeroLines(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 16 << 20, Ways: 16, Latency: 40} // the default L3
	c := NewCache(cfg)
	st := c.State()
	if len(st.Lines) != cfg.Sets()*cfg.Ways {
		t.Fatalf("State has %d lines, want Sets()*Ways = %d", len(st.Lines), cfg.Sets()*cfg.Ways)
	}
	if !allZero(st.Lines) {
		t.Fatal("an untouched cache's State holds a non-zero line")
	}
	if n := c.filled; n != 0 {
		t.Fatalf("State allocated %d chunks", n)
	}
}

// TestStateRestoreRoundTripAcrossStorageGrowth checks State -> Restore ->
// State on a cache still in its first segment and again after it has grown
// to the whole level. The image holds invalidated lines (valid false, tag and
// recency kept) as well as resident ones. Each image is restored into a
// fresh cache, which must allocate exactly the chunks that hold non-zero
// lines, and into a cache with more chunks filled, whose extra lines it
// must clear.
func TestStateRestoreRoundTripAcrossStorageGrowth(t *testing.T) {
	cfg := bigCacheConfig
	sets := uint64(cfg.Sets())
	c := NewCache(cfg)
	fill := func(chunks []uint64) {
		for i, k := range chunks {
			c.Insert(chunkAddr(sets, k, 1, 0), uint64(i))
			c.Insert(chunkAddr(sets, k, 1, 1), uint64(i)+100)
			c.Insert(chunkAddr(sets, k, 1, 2), uint64(i)+200) // evicts tag 0
			c.MarkDirty(chunkAddr(sets, k, 1, 1))
			c.Insert(chunkAddr(sets, k, 63, 5), 7)
			c.Invalidate(chunkAddr(sets, k, 63, 5))
		}
	}
	var sparse, all []uint64
	for k := uint64(0); k < sets>>chunkShift; k++ {
		if k%5 == 2 {
			sparse = append(sparse, k)
		} else {
			all = append(all, k)
		}
	}
	roundTrip := func(phase string, wantChunks int) {
		t.Helper()
		st := c.State()
		fresh := NewCache(cfg)
		if err := fresh.Restore(st); err != nil {
			t.Fatal(err)
		}
		if got := fresh.filled; got != wantChunks {
			t.Errorf("%s: Restore allocated %d chunks, want the %d with non-zero lines", phase, got, wantChunks)
		}
		if !reflect.DeepEqual(fresh.State(), st) {
			t.Errorf("%s: State -> Restore -> State differs", phase)
		}
		if fresh.Fingerprint(50) != c.Fingerprint(50) || fresh.OccupiedSets() != c.OccupiedSets() {
			t.Errorf("%s: restored cache fingerprints differ", phase)
		}
		over := NewCache(cfg)
		for k := uint64(0); k < sets>>chunkShift; k++ {
			over.Insert(chunkAddr(sets, k, 7, 3), 1)
		}
		if err := over.Restore(st); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(over.State(), st) {
			t.Errorf("%s: Restore over a fuller cache left lines behind", phase)
		}
	}

	fill(sparse)
	if n := storedChunks(c); n != firstChunks {
		t.Fatalf("storage holds %d chunks before growth, want the first segment's %d", n, firstChunks)
	}
	roundTrip("first segment", len(sparse))
	fill(all)
	if n := storedChunks(c); n != int(sets>>chunkShift) {
		t.Fatalf("storage holds %d chunks after growth, want the whole level", n)
	}
	roundTrip("whole level", int(sets>>chunkShift))
}

// TestUndoRollbackAcrossStorageGrowth journals a speculative epoch whose
// first records — a recency touch, a dirty transition, an eviction of a
// dirty line — address ways in the first segment, and whose later fills
// grow every level's storage to the whole level. Rolling the epoch back
// must restore the hierarchy exactly: fingerprints, occupied sets and way
// images equal to a twin that never speculated.
func TestUndoRollbackAcrossStorageGrowth(t *testing.T) {
	cfg := HierarchyConfig{
		L1D:        bigCacheConfig,
		L2:         CacheConfig{SizeBytes: 1 << 20, Ways: 4, Latency: 15},
		L3:         CacheConfig{SizeBytes: 2 << 20, Ways: 4, Latency: 40},
		MemLatency: 54,
		L1MSHRs:    4,
	}
	sets := uint64(cfg.L1D.Sets())
	warm := func(h *Hierarchy) {
		now := uint64(0)
		for k := uint64(0); k < 6; k++ {
			for tag := uint64(0); tag < 2; tag++ {
				h.Access(now, chunkAddr(sets, k, 0, tag), ClassDemand, AccessOptions{Write: tag == 1})
				now += 1000
			}
		}
	}
	h := NewHierarchy(cfg)
	h.EnableUndo(UndoOptions{})
	twin := NewHierarchy(cfg)
	warm(h)
	warm(twin)

	levels := []*Cache{h.L1D, h.L2, h.L3}
	var stored []int
	for _, c := range levels {
		stored = append(stored, storedChunks(c))
	}
	now := uint64(100_000)
	spec := func(addr uint64, write bool) {
		h.Access(now, addr, ClassDemand, AccessOptions{UndoSeq: 42, Write: write})
		now += 1000
	}
	spec(chunkAddr(sets, 0, 0, 0), false) // touch: tag 1 becomes LRU
	spec(chunkAddr(sets, 1, 0, 0), true)  // dirty transition
	spec(chunkAddr(sets, 0, 0, 2), false) // evicts dirty tag 1, writes back
	for k := uint64(6); k < sets>>chunkShift; k++ {
		spec(chunkAddr(sets, k, 5, 0), false)
	}
	for i, c := range levels {
		if storedChunks(c) <= stored[i] {
			t.Fatalf("level %d: storage did not grow during the epoch (%d chunks)", i, storedChunks(c))
		}
	}

	h.RollbackAfter(41)
	if h.UndoPending() != 0 {
		t.Fatalf("%d records pending after rollback", h.UndoPending())
	}
	for i, tw := range []*Cache{twin.L1D, twin.L2, twin.L3} {
		c := levels[i]
		if c.Fingerprint(now) != tw.Fingerprint(now) {
			t.Errorf("level %d: fingerprint differs from the never-speculated twin", i)
		}
		if c.OccupiedSets() != tw.OccupiedSets() {
			t.Errorf("level %d: occupied sets %#x, twin %#x", i, c.OccupiedSets(), tw.OccupiedSets())
		}
		if c.StatsFingerprint() != tw.StatsFingerprint() {
			t.Errorf("level %d: counters differ from the twin", i)
		}
		if !reflect.DeepEqual(c.State().Lines, tw.State().Lines) {
			t.Errorf("level %d: way image differs from the twin", i)
		}
	}
}

// TestStorageTracksFootprint fills the default L3 one chunk at a time. Its
// storage must stay within four times the chunks filled (the first segment
// aside) and take at most three segments, so a run that outgrows the first
// segment by a little does not pay for the whole level; and a way, once
// allocated, must never move.
func TestStorageTracksFootprint(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 16 << 20, Ways: 16, Latency: 40} // the default L3
	sets := uint64(cfg.Sets())
	c := NewCache(cfg)
	c.Insert(chunkAddr(sets, 0, 0, 0), 1)
	first := c.find(chunkAddr(sets, 0, 0, 0))
	segments, stored := 1, storedChunks(c)
	for k := uint64(1); k < sets>>chunkShift; k++ {
		c.Insert(chunkAddr(sets, k, 0, 0), 1)
		if n := storedChunks(c); n != stored {
			segments, stored = segments+1, n
		}
		if limit := max(firstChunks, 4*c.filled); stored > limit {
			t.Fatalf("%d chunks filled, %d stored, over %d", c.filled, stored, limit)
		}
	}
	if stored != int(sets>>chunkShift) || segments > 3 {
		t.Errorf("the whole level is %d chunks in %d segments, want %d in at most 3", stored, segments, sets>>chunkShift)
	}
	if c.find(chunkAddr(sets, 0, 0, 0)) != first {
		t.Error("a way moved when storage grew")
	}
}

// TestResetKeepsStorage: Reset leaves every set unfilled and the cache
// reading as a fresh one's, keeps the chunks it filled, zeroed, and
// refills from them without allocating; Outgrown tells a cache within its
// first two segments from one that grew past them. The cache has 256
// chunks, as the default L3 does, so it can outgrow them.
func TestResetKeepsStorage(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 2 << 20, Ways: 2, Latency: 5}
	sets := uint64(cfg.Sets())
	fill := func(c *Cache, chunks uint64) {
		for k := uint64(0); k < chunks; k++ {
			c.Insert(chunkAddr(sets, k, 0, 1), 1)
		}
	}
	fresh := NewCache(cfg).State()
	c := NewCache(cfg)
	for _, chunks := range []uint64{3, firstChunks + 1, keptChunks, keptChunks + 1} {
		fill(c, chunks)
		if got, want := c.Outgrown(), chunks > keptChunks; got != want {
			t.Fatalf("%d chunks filled: Outgrown %v, want %v", chunks, got, want)
		}
		c.Reset()
		if !reflect.DeepEqual(c.State(), fresh) {
			t.Fatalf("%d chunks filled: a reset cache's State differs from a fresh cache's", chunks)
		}
		if len(c.free) != int(chunks) {
			t.Fatalf("%d chunks filled: %d free after Reset", chunks, len(c.free))
		}
		if allocs := testing.AllocsPerRun(1, func() { fill(c, chunks); c.Reset() }); allocs != 0 {
			t.Fatalf("%d chunks filled: refilling from the free list allocated %v times", chunks, allocs)
		}
	}
}
