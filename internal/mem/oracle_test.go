package mem

import (
	"testing"
)

// oracleCache is a deliberately naive reference model of a set-associative
// LRU cache with fill times: per set, a slice of lines ordered by recency.
type oracleCache struct {
	sets  int
	ways  int
	lines map[uint64][]oracleLine // set -> recency-ordered (MRU first)
}

type oracleLine struct {
	tag     uint64
	readyAt uint64
}

func newOracle(cfg CacheConfig) *oracleCache {
	return &oracleCache{sets: cfg.Sets(), ways: cfg.Ways, lines: map[uint64][]oracleLine{}}
}

func (o *oracleCache) locate(addr uint64) (set, tag uint64) {
	la := LineAddr(addr) / LineSize
	return la % uint64(o.sets), la / uint64(o.sets)
}

func (o *oracleCache) contains(addr, now uint64) bool {
	set, tag := o.locate(addr)
	for _, l := range o.lines[set] {
		if l.tag == tag {
			return l.readyAt <= now
		}
	}
	return false
}

func (o *oracleCache) present(addr uint64) bool {
	set, tag := o.locate(addr)
	for _, l := range o.lines[set] {
		if l.tag == tag {
			return true
		}
	}
	return false
}

func (o *oracleCache) touch(addr uint64) {
	set, tag := o.locate(addr)
	ls := o.lines[set]
	for i, l := range ls {
		if l.tag == tag {
			copy(ls[1:i+1], ls[:i])
			ls[0] = l
			return
		}
	}
}

func (o *oracleCache) insert(addr, readyAt uint64) {
	set, tag := o.locate(addr)
	ls := o.lines[set]
	for i, l := range ls {
		if l.tag == tag {
			if readyAt < l.readyAt {
				l.readyAt = readyAt
			}
			copy(ls[1:i+1], ls[:i])
			ls[0] = l
			return
		}
	}
	if len(ls) == o.ways {
		ls = ls[:o.ways-1] // drop LRU
	}
	o.lines[set] = append([]oracleLine{{tag: tag, readyAt: readyAt}}, ls...)
}

func (o *oracleCache) invalidate(addr uint64) {
	set, tag := o.locate(addr)
	ls := o.lines[set]
	for i, l := range ls {
		if l.tag == tag {
			o.lines[set] = append(ls[:i], ls[i+1:]...)
			return
		}
	}
}

// TestCacheAgainstOracle drives the real cache and the naive model with the
// same randomized operation stream and requires identical observable
// behaviour (hit/miss, presence, eviction effects).
func TestCacheAgainstOracle(t *testing.T) {
	const addrSpace = 64 * 64 // 64 lines over 8 sets: heavy conflict traffic
	driveAgainstOracle(t, CacheConfig{SizeBytes: 2048, Ways: 4, Latency: 5}, 200000,
		func(_ int, next func(uint64) uint64) uint64 { return next(addrSpace) })
}

// TestCacheAgainstOracleAcrossStorageGrowth runs the oracle stream on a cache
// with 64 chunks of storage, confined to 12 chunks for the first half (the
// first segment) and spread over all of them for the second, so the stream
// crosses the growth to the whole level with resident lines in it.
func TestCacheAgainstOracleAcrossStorageGrowth(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 512 << 10, Ways: 2, Latency: 5} // 4096 sets
	const steps = 200000
	c := driveAgainstOracle(t, cfg, steps, func(step int, next func(uint64) uint64) uint64 {
		chunks := uint64(12)
		if step >= steps/2 {
			chunks = uint64(cfg.Sets()) >> chunkShift
		}
		set := next(chunks)<<chunkShift | next(4)
		return (next(6)*uint64(cfg.Sets()) + set) * LineSize
	})
	if c.filled <= firstChunks {
		t.Fatalf("stream filled %d chunks; it must outgrow the %d-chunk first segment", c.filled, firstChunks)
	}
}

// driveAgainstOracle drives a fresh cache and the naive model with the same
// randomized operation stream over addresses drawn by pick, and requires
// identical observable behaviour. It returns the cache for further checks.
func driveAgainstOracle(t *testing.T, cfg CacheConfig, steps int, pick func(step int, next func(uint64) uint64) uint64) *Cache {
	t.Helper()
	c := NewCache(cfg)
	o := newOracle(cfg)

	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}

	now := uint64(0)
	for step := 0; step < steps; step++ {
		now += next(3)
		addr := pick(step, next)
		switch next(10) {
		case 0, 1, 2, 3: // access with LRU update
			got := c.Access(addr, now, ClassDemand, true)
			want := o.contains(addr, now)
			if got != want {
				t.Fatalf("step %d: Access(%#x, %d) = %v, oracle %v", step, addr, now, got, want)
			}
			if got {
				o.touch(addr)
			}
		case 4: // access without LRU update (DoM delayed replacement)
			got := c.Access(addr, now, ClassDemand, false)
			if want := o.contains(addr, now); got != want {
				t.Fatalf("step %d: no-LRU access mismatch at %#x", step, addr)
			}
		case 5, 6, 7: // fill
			fill := now + next(50)
			c.Insert(addr, fill)
			o.insert(addr, fill)
		case 8: // invalidate
			gotHad := c.Invalidate(addr)
			wantHad := o.present(addr)
			if gotHad != wantHad {
				t.Fatalf("step %d: Invalidate(%#x) = %v, oracle %v", step, addr, gotHad, wantHad)
			}
			o.invalidate(addr)
		case 9: // touch (delayed replacement update)
			c.Touch(addr)
			o.touch(addr)
		}
		// Spot-check presence agreement on a random probe.
		probe := pick(step, next)
		if c.Present(probe) != o.present(probe) {
			t.Fatalf("step %d: Present(%#x) disagrees with oracle", step, probe)
		}
		if c.Contains(probe, now) != o.contains(probe, now) {
			t.Fatalf("step %d: Contains(%#x, %d) disagrees with oracle", step, probe, now)
		}
	}
	return c
}
