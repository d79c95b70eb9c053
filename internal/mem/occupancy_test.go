package mem

import "testing"

// scanFingerprint is Fingerprint computed the long way: every set of the
// cache, allocated or not, in set order. An unallocated set is all-invalid.
func scanFingerprint(c *Cache, now uint64) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for s := 0; s < c.cfg.Sets(); s++ {
		ways := c.setWays(uint64(s))
		prevUse := uint64(0)
		for rank := 0; ; rank++ {
			var l *line
			for wi := range ways {
				cand := &ways[wi]
				if !cand.valid || (rank > 0 && cand.lastUse <= prevUse) {
					continue
				}
				if l == nil || cand.lastUse < l.lastUse {
					l = cand
				}
			}
			if l == nil {
				break
			}
			prevUse = l.lastUse
			var bits uint64
			if l.dirty {
				bits |= 1
			}
			if l.readyAt > now {
				bits |= 2
			}
			mix(uint64(s))
			mix(l.tag)
			mix(uint64(rank))
			mix(bits)
		}
	}
	return h
}

// scanOccupiedSets is OccupiedSets computed over every set of the cache.
func scanOccupiedSets(c *Cache) uint64 {
	var bits uint64
	for s := 0; s < c.cfg.Sets(); s++ {
		for _, l := range c.setWays(uint64(s)) {
			if l.valid {
				bits |= 1 << (uint(s) % 64)
				break
			}
		}
	}
	return bits
}

// checkOccupancy compares a cache's occupancy-driven digests with the full
// scans and checks the occupancy invariant: a set outside the word is
// all-zero.
func checkOccupancy(t *testing.T, step int, name string, c *Cache, now uint64) {
	t.Helper()
	if got, want := c.Fingerprint(now), scanFingerprint(c, now); got != want {
		t.Fatalf("step %d %s: Fingerprint %#x, full scan %#x", step, name, got, want)
	}
	if got, want := c.OccupiedSets(), scanOccupiedSets(c); got != want {
		t.Fatalf("step %d %s: OccupiedSets %#x, full scan %#x", step, name, got, want)
	}
	for s := 0; s < c.cfg.Sets(); s++ {
		if c.chunks[s>>c.chunkShift].occupied&(1<<(uint64(s)&c.chunkMask)) != 0 {
			continue
		}
		for _, l := range c.setWays(uint64(s)) {
			if l != (line{}) {
				t.Fatalf("step %d %s: set %d is outside the occupancy word but holds %+v", step, name, s, l)
			}
		}
	}
}

// TestFingerprintMatchesFullScan drives a small hierarchy, its L1 randomly
// replacing and its L3 spread over sixteen chunks, through a random mix of
// committed and journaled accesses, rollbacks, retirement, invalidations,
// checkpoint restores and resets. After every step each level's
// Fingerprint and OccupiedSets must equal a scan of every set, and after
// every Reset every line of storage must be zero.
func TestFingerprintMatchesFullScan(t *testing.T) {
	cfg := HierarchyConfig{
		L1D:        CacheConfig{SizeBytes: 1 << 10, Ways: 2, Latency: 5, RandomReplacement: true},
		L2:         CacheConfig{SizeBytes: 8 << 10, Ways: 4, Latency: 15},
		L3:         CacheConfig{SizeBytes: 256 << 10, Ways: 4, Latency: 40},
		MemLatency: 54,
		L1MSHRs:    4,
	}
	h := NewHierarchy(cfg)
	h.EnableUndo(UndoOptions{})
	x := uint64(11) // xorshift64 stream
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Lines come from a 4096-line window with a few far-away outliers, so
	// the L3 fills some chunks densely, others with one set, most never.
	addr := func() uint64 {
		if next()%16 == 0 {
			return 0x400000 + next()%64*0x10040
		}
		return 0x10000 + next()%4096*LineSize
	}
	var saved *HierarchyState
	now, retired, resets, restores, rollbacks := uint64(0), uint64(0), 0, 0, 0
	for seq := uint64(1); seq <= 12_000; seq++ {
		now += next() % 40
		opts := AccessOptions{UndoSeq: seq, Write: next()%5 == 0}
		if next()%4 == 0 {
			opts.UndoSeq = 0 // committed traffic, never journaled
		}
		h.Access(now, addr(), ClassDemand, opts)
		switch r := next() % 512; {
		case r < 24:
			h.RollbackAfter(max(retired, seq-next()%16))
			rollbacks++
		case r < 160:
			retired = max(retired, seq-next()%8)
			h.RetireUpTo(retired)
		case r < 200:
			h.Invalidate(addr())
		case r < 204:
			h.RetireUpTo(seq)
			retired = seq
			saved = h.State()
		case r < 208 && saved != nil:
			// Restore into a hierarchy whose storage holds other lines.
			h.RetireUpTo(seq)
			retired = seq
			if err := h.Restore(saved); err != nil {
				t.Fatal(err)
			}
			restores++
		case r == 511:
			h.Reset()
			resets++
			for _, c := range []*Cache{h.L1D, h.L2, h.L3} {
				for _, chunk := range append([][]line{c.spare}, c.free...) {
					for i, l := range chunk {
						if l != (line{}) {
							t.Fatalf("step %d: line %d of a free chunk is %+v after Reset", seq, i, l)
						}
					}
				}
			}
		}
		for _, lv := range []struct {
			name string
			c    *Cache
		}{{"L1D", h.L1D}, {"L2", h.L2}, {"L3", h.L3}} {
			checkOccupancy(t, int(seq), lv.name, lv.c, now)
		}
	}
	if resets == 0 || restores == 0 || rollbacks == 0 {
		t.Fatalf("scenario too tame: %d resets, %d restores, %d rollbacks", resets, restores, rollbacks)
	}
}
