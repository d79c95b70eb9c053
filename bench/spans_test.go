package main

import "testing"

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harness.cell", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third covers [60, 70).
		{ID: 2, Parent: 1, Name: "sim.NewCore", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "pipeline.Core.Run", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "sim.Summarize", Start: 60, End: 70},
		// A grandchild counts against its parent, not the root.
		{ID: 5, Parent: 3, Name: "mem.Access", Start: 25, End: 35},
		// A child running past its parent is clipped.
		{ID: 6, Name: "bench.request", Start: 200, End: 210},
		{ID: 7, Parent: 6, Name: "loadgen.wait", Start: 205, End: 230},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 10, 5: 10, 6: 5, 7: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	if l := spans[2].layer(); l != "pipeline" {
		t.Errorf("layer of %q = %q", spans[2].Name, l)
	}
}
