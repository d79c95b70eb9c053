package mem_test

import (
	"runtime"
	"testing"

	"doppelganger/internal/mem"
	"doppelganger/internal/pipeline"
)

// TestNewHierarchyAllocationBound pins the construction cost of the Table 1
// hierarchy (48 KB L1D, 2 MB L2, 16 MB L3) in bytes allocated, which does
// not depend on host speed: ways are allocated on first fill, so a fresh
// hierarchy holds only its per-chunk tables. Allocating every way up
// front costs 10 MB.
func TestNewHierarchyAllocationBound(t *testing.T) {
	cfg := pipeline.DefaultConfig().Memory
	const bound = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := mem.NewHierarchy(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("NewHierarchy allocated %d bytes, want under %d", got, bound)
	}
}
