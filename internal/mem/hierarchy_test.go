package mem

import "testing"

func tinyHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		L1D:        CacheConfig{SizeBytes: 1 << 10, Ways: 2, Latency: 5},
		L2:         CacheConfig{SizeBytes: 8 << 10, Ways: 4, Latency: 15},
		L3:         CacheConfig{SizeBytes: 64 << 10, Ways: 4, Latency: 40},
		MemLatency: 54,
		L1MSHRs:    2,
	})
}

func TestHierarchyMissLatencyLadder(t *testing.T) {
	h := tinyHierarchy()
	// Cold access: full DRAM round trip.
	res := h.Access(0, 0x10000, ClassDemand, AccessOptions{})
	if res.Latency != 5+15+40+54 {
		t.Errorf("cold miss latency = %d, want 114", res.Latency)
	}
	if res.Level != LevelMem {
		t.Errorf("cold miss level = %v, want mem", res.Level)
	}
	if h.DRAMAccesses != 1 {
		t.Errorf("DRAM accesses = %d, want 1", h.DRAMAccesses)
	}
	// After the fill completes, it hits in L1.
	res = h.Access(200, 0x10000, ClassDemand, AccessOptions{})
	if res.Level != LevelL1 || res.Latency != 5 {
		t.Errorf("post-fill access = %+v, want L1/5", res)
	}
	// Evict it from L1 by filling the set; then it should hit L2.
	// L1: 8 sets, 2 ways; same set = +8*64 strides.
	h.Access(300, 0x10000+8*64, ClassDemand, AccessOptions{NoMSHR: true})
	h.Access(500, 0x10000+16*64, ClassDemand, AccessOptions{NoMSHR: true})
	res = h.Access(700, 0x10000, ClassDemand, AccessOptions{})
	if res.Level != LevelL2 || res.Latency != 5+15 {
		t.Errorf("L2 hit = %+v, want L2/20", res)
	}
}

func TestHierarchyMSHRMergeAndLimit(t *testing.T) {
	h := tinyHierarchy()
	r1 := h.Access(0, 0x20000, ClassDemand, AccessOptions{})
	if r1.Rejected || r1.Merged {
		t.Fatalf("first miss: %+v", r1)
	}
	// Same line while in flight: merged, with remaining latency.
	r2 := h.Access(10, 0x20008, ClassDemand, AccessOptions{})
	if !r2.Merged {
		t.Fatalf("same-line access should merge: %+v", r2)
	}
	if want := r1.Latency - 10; r2.Latency != want {
		t.Errorf("merged latency = %d, want remaining %d", r2.Latency, want)
	}
	// A second distinct miss takes the last MSHR.
	if r := h.Access(11, 0x30000, ClassDemand, AccessOptions{}); r.Rejected {
		t.Fatalf("second miss should be accepted: %+v", r)
	}
	// Third distinct miss: rejected (2 MSHRs).
	if r := h.Access(12, 0x40000, ClassDemand, AccessOptions{}); !r.Rejected {
		t.Fatalf("third miss should be rejected: %+v", r)
	}
	if h.RejectedMSHR != 1 {
		t.Errorf("RejectedMSHR = %d, want 1", h.RejectedMSHR)
	}
	// Rejection must leave no trace in the access statistics.
	if got := h.L1D.Accesses[ClassDemand]; got != 3 {
		t.Errorf("L1 accesses = %d, want 3 (rejection uncounted)", got)
	}
	// After the fills complete the MSHRs free up.
	if n := h.OutstandingMisses(1000); n != 0 {
		t.Errorf("outstanding misses = %d, want 0", n)
	}
	if r := h.Access(1000, 0x40000, ClassDemand, AccessOptions{}); r.Rejected {
		t.Error("miss after MSHRs freed should be accepted")
	}
}

func TestHierarchyDoMSpeculativeProbe(t *testing.T) {
	h := tinyHierarchy()
	// Speculative miss: nothing anywhere changes.
	res := h.Access(0, 0x50000, ClassDemand, AccessOptions{DoMSpeculative: true})
	if !res.DelayedMiss {
		t.Fatalf("probe of absent line should be a delayed miss: %+v", res)
	}
	if h.L1D.TotalAccesses() != 0 || h.L2.TotalAccesses() != 0 || h.DRAMAccesses != 0 {
		t.Error("delayed miss must not touch any level")
	}
	if h.L1D.Present(0x50000) {
		t.Error("delayed miss must not allocate")
	}
	// Fill it normally, then probe again: hit without recency update.
	h.Access(0, 0x50000, ClassDemand, AccessOptions{})
	res = h.Access(500, 0x50000, ClassDemand, AccessOptions{DoMSpeculative: true})
	if res.DelayedMiss || res.Level != LevelL1 {
		t.Errorf("probe of resident line = %+v, want L1 hit", res)
	}
	// A probe of a line whose fill is still in flight is a delayed miss.
	h.Access(600, 0x60000, ClassDemand, AccessOptions{})
	res = h.Access(605, 0x60000, ClassDemand, AccessOptions{DoMSpeculative: true})
	if !res.DelayedMiss {
		t.Errorf("probe during fill = %+v, want delayed miss", res)
	}
}

func TestHierarchyPrefetchSemantics(t *testing.T) {
	h := tinyHierarchy()
	// Prefetch of an absent line is performed and tracked mergeably.
	res := h.Access(0, 0x70000, ClassPrefetch, AccessOptions{Prefetch: true})
	if res.Rejected {
		t.Fatalf("prefetch rejected: %+v", res)
	}
	// Demand access during the prefetch fill merges.
	res = h.Access(50, 0x70000, ClassDemand, AccessOptions{})
	if !res.Merged {
		t.Errorf("demand during prefetch fill = %+v, want merged", res)
	}
	// Prefetch of a resident or in-flight line is dropped.
	res = h.Access(60, 0x70000, ClassPrefetch, AccessOptions{Prefetch: true})
	if !res.Rejected {
		t.Errorf("redundant prefetch = %+v, want dropped", res)
	}
	// Prefetches do not consume the demand MSHR budget.
	h2 := tinyHierarchy()
	h2.Access(0, 0x1000, ClassPrefetch, AccessOptions{Prefetch: true})
	h2.Access(0, 0x2000, ClassPrefetch, AccessOptions{Prefetch: true})
	h2.Access(0, 0x3000, ClassPrefetch, AccessOptions{Prefetch: true})
	if r := h2.Access(1, 0x4000, ClassDemand, AccessOptions{}); r.Rejected {
		t.Error("demand miss rejected although only prefetches are outstanding")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := tinyHierarchy()
	h.Access(0, 0x1000, ClassDemand, AccessOptions{})
	if !h.Invalidate(0x1000) {
		t.Error("invalidate of cached line should report true")
	}
	if h.PresentL1(0x1000) {
		t.Error("line still in L1 after invalidate")
	}
	res := h.Access(2000, 0x1000, ClassDemand, AccessOptions{})
	if res.Level != LevelMem {
		t.Errorf("re-access after invalidate hit %v, want mem", res.Level)
	}
}

func TestHierarchyInclusiveFill(t *testing.T) {
	h := tinyHierarchy()
	h.Access(0, 0x1000, ClassDemand, AccessOptions{})
	if !h.L1D.Present(0x1000) || !h.L2.Present(0x1000) || !h.L3.Present(0x1000) {
		t.Error("DRAM fill must populate all levels")
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := tinyHierarchy()
	h.Access(0, 0x1000, ClassDemand, AccessOptions{})
	h.ResetStats()
	if h.L1D.TotalAccesses() != 0 || h.DRAMAccesses != 0 || h.RejectedMSHR != 0 {
		t.Error("ResetStats left counters")
	}
	if !h.L1D.Present(0x1000) {
		t.Error("ResetStats must not disturb contents")
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	bad := tinyHierarchy().Config()
	bad.L1MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MSHRs should not validate")
	}
	bad2 := tinyHierarchy().Config()
	bad2.L2.Ways = 0
	if err := bad2.Validate(); err == nil {
		t.Error("bad L2 should not validate")
	}
}

func TestClassAndLevelStrings(t *testing.T) {
	if ClassDemand.String() != "demand" || ClassDoppelganger.String() != "doppelganger" ||
		ClassPrefetch.String() != "prefetch" || ClassWriteback.String() != "writeback" {
		t.Error("class names wrong")
	}
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" ||
		LevelL3.String() != "L3" || LevelMem.String() != "mem" {
		t.Error("level names wrong")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 64 || LineAddr(0x12345) != 0x12340 {
		t.Error("LineAddr wrong")
	}
}

func TestWritebackTraffic(t *testing.T) {
	h := tinyHierarchy()
	// Dirty a line in the L1 via a store access.
	h.Access(0, 0x1000, ClassWriteback, AccessOptions{NoMSHR: true, Write: true})
	// L1: 8 sets, 2 ways. Evict 0x1000's set with two more same-set lines.
	same := func(k uint64) uint64 { return 0x1000 + k*8*64 }
	h.Access(500, same(1), ClassDemand, AccessOptions{NoMSHR: true})
	h.Access(1000, same(2), ClassDemand, AccessOptions{NoMSHR: true})
	if h.Writebacks[0] == 0 {
		t.Error("dirty L1 eviction did not produce a writeback")
	}
	// The dirty line must now be dirty in the L2 (written back, not lost).
	if !h.L2.Present(0x1000) {
		t.Error("written-back line absent from L2")
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	h := tinyHierarchy()
	h.Access(0, 0x1000, ClassDemand, AccessOptions{NoMSHR: true}) // clean
	same := func(k uint64) uint64 { return 0x1000 + k*8*64 }
	h.Access(500, same(1), ClassDemand, AccessOptions{NoMSHR: true})
	h.Access(1000, same(2), ClassDemand, AccessOptions{NoMSHR: true})
	if h.Writebacks[0] != 0 {
		t.Errorf("clean eviction produced %d writebacks", h.Writebacks[0])
	}
}

func TestMarkDirtyOnHit(t *testing.T) {
	h := tinyHierarchy()
	h.Access(0, 0x2000, ClassDemand, AccessOptions{NoMSHR: true})
	// A store hit dirties the resident line.
	h.Access(500, 0x2000, ClassWriteback, AccessOptions{NoMSHR: true, Write: true})
	same := func(k uint64) uint64 { return 0x2000 + k*8*64 }
	h.Access(600, same(1), ClassDemand, AccessOptions{NoMSHR: true})
	h.Access(1100, same(2), ClassDemand, AccessOptions{NoMSHR: true})
	if h.Writebacks[0] == 0 {
		t.Error("store-hit-dirtied line evicted without writeback")
	}
}

// TestMSHRStallMatchesAccess checks the side-effect-free MSHRStall against
// Access itself over a random mix of demand, doppelganger, prefetch and
// committed-store traffic: it must predict every MSHR-full rejection, and
// a stalled verdict must hold, absent further accesses, until the cycle it
// names.
func TestMSHRStallMatchesAccess(t *testing.T) {
	h := tinyHierarchy()
	x := uint64(3)
	now := uint64(0)
	stalls := 0
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		now += x % 9
		addr := 0x10000 + x%256*64
		switch x % 7 {
		case 0:
			h.Access(now, addr, ClassPrefetch, AccessOptions{Prefetch: true})
			continue
		case 1:
			h.Access(now, addr, ClassWriteback, AccessOptions{NoMSHR: true, Write: true})
			continue
		}
		until, stalled := h.MSHRStall(now, addr)
		if stalled {
			stalls++
			if until <= now {
				t.Fatalf("access %d: stalled at cycle %d until %d", i, now, until)
			}
			if _, still := h.MSHRStall(until-1, addr); !still {
				t.Fatalf("access %d: stall at cycle %d lifted before the cycle %d it names", i, now, until)
			}
		}
		class := ClassDemand
		if x%3 == 0 {
			class = ClassDoppelganger
		}
		if r := h.Access(now, addr, class, AccessOptions{}); r.Rejected != stalled {
			t.Fatalf("access %d at cycle %d: MSHRStall says %v, Access rejected %v", i, now, stalled, r.Rejected)
		}
	}
	if stalls == 0 {
		t.Fatal("scenario too tame: the MSHR file never filled")
	}
}
