package mem

import "testing"

// table1 is the paper's Table 1 hierarchy, as pipeline.DefaultConfig
// builds it.
var table1 = HierarchyConfig{
	L1D:        CacheConfig{SizeBytes: 48 << 10, Ways: 12, Latency: 5},
	L2:         CacheConfig{SizeBytes: 2 << 20, Ways: 8, Latency: 15},
	L3:         CacheConfig{SizeBytes: 16 << 20, Ways: 16, Latency: 40},
	MemLatency: 54,
	L1MSHRs:    16,
}

// missGap spaces accesses so that each one's fill has completed, and its
// MSHR expired, before the next one issues.
const missGap = 200

// warm fills every set of every level, so that the timed accesses run on
// storage that is fully allocated, and returns the line index to continue
// from: every line from there on is new.
func warm(b *testing.B, h *Hierarchy) uint64 {
	b.Helper()
	lines := uint64(table1.L3.SizeBytes / LineSize)
	for i := uint64(0); i < lines; i++ {
		h.Access(i*missGap, i*LineSize, ClassDemand, AccessOptions{})
	}
	b.ResetTimer()
	return lines
}

// BenchmarkAccessHit measures an L1 hit: one resident line, read again
// and again.
func BenchmarkAccessHit(b *testing.B) {
	h := NewHierarchy(table1)
	h.Access(0, 0x1000, ClassDemand, AccessOptions{})
	now := uint64(missGap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		if res := h.Access(now, 0x1000, ClassDemand, AccessOptions{}); res.Level != LevelL1 {
			b.Fatalf("access %d satisfied at %v, want L1", i, res.Level)
		}
	}
}

// BenchmarkAccessMiss measures a miss to DRAM: every access reads a line
// never read before, fills it into every level, evicting a line from each,
// and allocates an MSHR.
func BenchmarkAccessMiss(b *testing.B) {
	h := NewHierarchy(table1)
	b.ReportAllocs()
	first := warm(b, h)
	for i := first; i < first+uint64(b.N); i++ {
		if res := h.Access(i*missGap, i*LineSize, ClassDemand, AccessOptions{}); res.Level != LevelMem {
			b.Fatalf("access %d satisfied at %v, want memory", i, res.Level)
		}
	}
}

// BenchmarkAccessJournaled is BenchmarkAccessMiss under an undo scheme:
// each access is tagged with its own sequence number, journals its side
// effects, and retires them as its instruction would commit.
func BenchmarkAccessJournaled(b *testing.B) {
	h := NewHierarchy(table1)
	h.EnableUndo(UndoOptions{})
	b.ReportAllocs()
	first := warm(b, h)
	for i := first; i < first+uint64(b.N); i++ {
		seq := i + 1
		if res := h.Access(i*missGap, i*LineSize, ClassDemand, AccessOptions{UndoSeq: seq}); res.Level != LevelMem {
			b.Fatalf("access %d satisfied at %v, want memory", i, res.Level)
		}
		h.RetireUpTo(seq)
	}
}

// BenchmarkAccessRejected measures a miss turned away by a full MSHR
// file: every L1 MSHR holds an outstanding fill, so each access is
// rejected and changes nothing but the rejection count.
func BenchmarkAccessRejected(b *testing.B) {
	h := NewHierarchy(table1)
	for i := 0; i < table1.L1MSHRs; i++ {
		h.Access(0, uint64(i)*LineSize, ClassDemand, AccessOptions{})
	}
	addr := uint64(table1.L1MSHRs) * LineSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := h.Access(1, addr, ClassDemand, AccessOptions{}); !res.Rejected {
			b.Fatalf("access %d was not rejected", i)
		}
	}
}
