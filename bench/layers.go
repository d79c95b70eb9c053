package main

import (
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// runAggregate folds decomposed Core.Run calls into the pipeline and mem
// layer metrics: host time per simulated cycle (overall and per scheme),
// the per-run time distribution, and the exact simulated counts a
// speed-only change must leave equal.
type runAggregate struct {
	runMS            []float64
	ns, cyc          map[secure.Scheme]float64
	cycles           uint64
	insts            uint64
	mispredicts      uint64
	doppVerified     uint64
	doppMispredicted uint64
	l1, l1Miss       uint64
	dram             uint64
}

func newRunAggregate() *runAggregate {
	return &runAggregate{ns: make(map[secure.Scheme]float64), cyc: make(map[secure.Scheme]float64)}
}

// add records one timed run.
func (a *runAggregate) add(s secure.Scheme, r sim.Result, runNS int64) {
	a.runMS = append(a.runMS, float64(runNS)/1e6)
	a.ns[s] += float64(runNS)
	a.cyc[s] += float64(r.Cycles)
	a.count(r)
}

// count records a run's simulated counts only, for results simulated out
// of sight (by a server).
func (a *runAggregate) count(r sim.Result) {
	a.cycles += r.Cycles
	a.insts += r.Insts
	a.mispredicts += r.Stats.BranchMispredicts
	a.doppVerified += r.Stats.DoppVerified
	a.doppMispredicted += r.Stats.DoppMispredicted
	a.l1 += r.Memory.L1Accesses
	a.l1Miss += r.Memory.L1Misses
	a.dram += r.Memory.DRAMAccesses
}

func (a *runAggregate) metrics() map[string]float64 {
	L := make(map[string]float64)
	var ns, cyc float64
	for _, s := range matrixSchemes {
		if a.cyc[s] > 0 {
			L["pipeline.ns_per_cycle."+s.String()] = a.ns[s] / a.cyc[s]
		}
		ns, cyc = ns+a.ns[s], cyc+a.cyc[s]
	}
	if cyc > 0 {
		L["pipeline.ns_per_cycle"] = ns / cyc
	}
	if len(a.runMS) > 0 {
		v, pct, n := tail(a.runMS)
		L["pipeline.run_ms_p50"] = median(a.runMS)
		L["pipeline.run_ms_tail"] = v
		L["pipeline.run_tail_pct"] = float64(pct)
		L["pipeline.runs"] = float64(n)
	}
	L["sim.cycles"] = float64(a.cycles)
	L["sim.insts"] = float64(a.insts)
	L["pipeline.mispredicts"] = float64(a.mispredicts)
	if n := a.doppVerified + a.doppMispredicted; n > 0 {
		L["pipeline.dopp_accuracy"] = float64(a.doppVerified) / float64(n)
	}
	L["mem.l1_accesses"] = float64(a.l1)
	L["mem.l1_misses"] = float64(a.l1Miss)
	L["mem.dram_accesses"] = float64(a.dram)
	return L
}
