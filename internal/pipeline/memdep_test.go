package pipeline

import (
	"testing"

	"doppelganger/internal/program"
	"doppelganger/internal/secure"
)

// aliasingLoop builds a loop in which a load repeatedly aliases a store
// whose address resolves late: without memory dependence prediction the
// load speculates past the store, violates, and squashes every iteration.
func aliasingLoop(iters int) *program.Program {
	b := program.NewBuilder("aliasing")
	const (
		slow = 0x8000
		data = 0x20000
	)
	for i := 0; i < iters; i++ {
		b.InitMem(slow+uint64(i)*64, 0)
	}
	b.LoadI(1, 0)
	b.LoadI(2, int64(iters))
	b.LoadI(3, slow)
	b.LoadI(4, data)
	b.LoadI(9, 0)
	b.LoadI(10, 777)
	loop := b.Here()
	b.Load(5, 3, 0)   // cold line: slow
	b.AndI(5, 5, 0)   // always zero, resolves late
	b.Add(6, 4, 5)    // store address = data (late)
	b.Store(10, 6, 0) // the aliasing store
	b.Load(7, 4, 0)   // same address: violates without memdep prediction
	b.Add(9, 9, 7)
	b.AddI(3, 3, 64)
	b.AddI(4, 4, 8)
	b.AddI(1, 1, 1)
	b.Blt(1, 2, loop)
	b.Store(9, 4, 0)
	b.Halt()
	return b.MustBuild()
}

// TestStoreSetPredictorKillsViolations: memory dependence prediction must
// learn the aliasing pair and eliminate the recurring violation squashes,
// with identical architectural results.
func TestStoreSetPredictorKillsViolations(t *testing.T) {
	p := aliasingLoop(80)
	ref := program.Run(p, 10_000_000)

	run := func(memdep bool) *Core {
		cfg := DefaultConfig()
		cfg.MemDepPrediction = memdep
		cfg.PrefetchDegree = 0
		c, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(0, 100_000_000); err != nil {
			t.Fatal(err)
		}
		if c.ArchState().Checksum() != ref.Checksum() {
			t.Fatalf("memdep=%v: architectural state mismatch", memdep)
		}
		return c
	}
	off := run(false)
	on := run(true)
	t.Logf("store sets off: %d violations, %d cycles; on: %d violations, %d cycles, %d memdep stalls",
		off.Stats.MemOrderViolations, off.Stats.Cycles,
		on.Stats.MemOrderViolations, on.Stats.Cycles, on.Stats.MemDepStalls)
	if off.Stats.MemOrderViolations < 10 {
		t.Fatalf("test premise broken: only %d violations without prediction", off.Stats.MemOrderViolations)
	}
	if on.Stats.MemOrderViolations*4 > off.Stats.MemOrderViolations {
		t.Errorf("memdep prediction left %d violations (baseline %d)",
			on.Stats.MemOrderViolations, off.Stats.MemOrderViolations)
	}
	if on.Stats.MemDepStalls == 0 {
		t.Error("no memdep stalls recorded although the predictor should be gating the load")
	}
	if on.Stats.Cycles >= off.Stats.Cycles {
		t.Errorf("memdep prediction (%d cycles) should beat recurring squashes (%d)",
			on.Stats.Cycles, off.Stats.Cycles)
	}
}

// TestStoreSetAcrossSchemes: the predictor must preserve correctness under
// every scheme, with and without doppelgangers.
func TestStoreSetAcrossSchemes(t *testing.T) {
	p := aliasingLoop(40)
	ref := program.Run(p, 10_000_000)
	for _, scheme := range secure.AllSchemes() {
		for _, ap := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.AddressPrediction = ap
			cfg.MemDepPrediction = true
			cfg.SelfCheck = true
			c, err := New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(0, 200_000_000); err != nil {
				t.Fatalf("%v ap=%v: %v", scheme, ap, err)
			}
			if c.ArchState().Checksum() != ref.Checksum() {
				t.Errorf("%v ap=%v: state mismatch with memdep prediction", scheme, ap)
			}
		}
	}
}

// TestExceptionShadows: with E-shadows on, loads cast shadows until their
// addresses translate, so DoM delays more misses and NDA delays more
// propagations; correctness is unaffected.
func TestExceptionShadows(t *testing.T) {
	p := gatedDependentOp()
	ref := program.Run(p, 10_000_000)
	run := func(eshadows bool) *Core {
		cfg := DefaultConfig()
		cfg.Scheme = secure.DoM
		cfg.ExceptionShadows = eshadows
		cfg.PrefetchDegree = 0
		cfg.SelfCheck = true
		c, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(0, 100_000_000); err != nil {
			t.Fatal(err)
		}
		if c.ArchState().Checksum() != ref.Checksum() {
			t.Fatal("architectural state mismatch")
		}
		return c
	}
	off := run(false)
	on := run(true)
	if on.Stats.Cycles < off.Stats.Cycles {
		t.Errorf("E-shadows (%d cycles) should not be faster than C+D shadows only (%d)",
			on.Stats.Cycles, off.Stats.Cycles)
	}
	if on.Stats.DoMDelayedMisses < off.Stats.DoMDelayedMisses {
		t.Errorf("E-shadows should delay at least as many misses (%d vs %d)",
			on.Stats.DoMDelayedMisses, off.Stats.DoMDelayedMisses)
	}
}

// TestCheckInvariantsDetectsCorruption: the self-checker must actually
// catch broken state, not just pass on healthy machines.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	p := aliasingLoop(20)
	cfg := DefaultConfig()
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		c.Step()
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("healthy machine failed the check: %v", err)
	}
	// Corrupt the rename map: alias two architectural registers.
	c.renameMap[1] = c.renameMap[2]
	if err := c.CheckInvariants(); err == nil {
		t.Error("aliased rename map not detected")
	}
	c.renameMap[1] = c.freeList[0]
	if err := c.CheckInvariants(); err == nil {
		t.Error("rename map pointing into the free list not detected")
	}
}
