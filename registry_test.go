package doppelganger

import (
	"reflect"
	"testing"

	"doppelganger/internal/harness"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// TestSchemeListsPinned pins the membership and order of the scheme lists
// the public API, the figures matrix and the benchmark read. Each is
// derived from the internal/secure registry; a registry edit that moves
// one fails here instead of silently changing a matrix.
func TestSchemeListsPinned(t *testing.T) {
	paper := []sim.Scheme{sim.Unsafe, sim.NDAP, sim.STT, sim.DoM}
	if got := sim.Schemes(); !reflect.DeepEqual(got, paper) {
		t.Errorf("sim.Schemes() = %v, want %v", got, paper)
	}
	all := append(paper, sim.NDAS, sim.STTSpectre, sim.Cleanup)
	if got := sim.AllSchemes(); !reflect.DeepEqual(got, all) {
		t.Errorf("sim.AllSchemes() = %v, want %v", got, all)
	}
	figures := []secure.Scheme{secure.NDAP, secure.STT, secure.DoM, secure.Cleanup}
	if !reflect.DeepEqual(harness.Schemes, figures) {
		t.Errorf("harness.Schemes = %v, want %v", harness.Schemes, figures)
	}
	var cfgs []leakcheck.Config
	for _, s := range paper {
		cfgs = append(cfgs, leakcheck.Config{Scheme: s}, leakcheck.Config{Scheme: s, AP: true})
	}
	if got := leakcheck.DefaultConfigs(); !reflect.DeepEqual(got, cfgs) {
		t.Errorf("leakcheck.DefaultConfigs() = %v, want %v", got, cfgs)
	}
}
