package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"doppelganger/internal/leakcheck"
	"doppelganger/sim"
)

// leakcheck-sweep runs leakcheck.Sweep over cmd/leakcheck's default
// matrix, {unsafe, nda-p, stt, dom, cleanup} × ±AP, on seeds
// [256·seed, 256·seed + n). Each pair is two runs of a gadget of a few
// thousand cycles, so core set-up and observation capture are a large share
// of the work here, against almost none in figures-cold.

func sweepConfigs() []leakcheck.Config {
	var cfgs []leakcheck.Config
	for _, s := range matrixSchemes {
		for _, ap := range []bool{false, true} {
			cfgs = append(cfgs, leakcheck.Config{Scheme: s, AP: ap})
		}
	}
	return cfgs
}

// pairLeak is one leaking seed as the digest and the cross-check see it.
type pairLeak struct {
	Seed       int64    `json:"seed"`
	Components []string `json:"components"`
}

// leakSets is each config's leaks, in config order, sorted by seed.
type leakSets [][]pairLeak

func (ls leakSets) digest(cfgs []leakcheck.Config) string {
	d := newDigester()
	for i, c := range cfgs {
		d.add(c.String(), ls[i])
	}
	return d.sum()
}

func (ls leakSets) sort() {
	for _, l := range ls {
		sort.Slice(l, func(a, b int) bool { return l[a].Seed < l[b].Seed })
	}
}

// knownLeaks are secure-config leaks this sweep has found that the model
// does not explain yet, by config and gadget seed: open bugs, not accepted
// behaviour. The check fails only on a leak not listed here; listed ones
// still count in the digest, every run that crosses one prints a warning,
// and TestKnownLeaksStillLeak fails once one is fixed, so that its entry
// goes with the fix.
var knownLeaks = map[string]map[int64]bool{
	// DoM with doppelganger loads on gadget seed 887 (bounds-check, 21
	// rounds, one training loop): memory traffic and the transient address
	// trace differ between the secrets. It is the only secure-config leak on
	// gadget seeds 0-5375.
	"dom+ap": {887: true},
}

// verdicts fails the report for every config that breaks the sweep's
// expectation on seeds [first, first+seeds): a secure config leaks (each
// leaking pair fails), or the unsafe baseline never does (the oracle saw
// nothing). It warns on every known leak in the range, leaking or not.
func (ls leakSets) verdicts(rep *childReport, cfgs []leakcheck.Config, first int64, seeds int, stderr io.Writer) {
	for i, c := range cfgs {
		r := leakcheck.SweepResult{Config: c, Seeds: seeds}
		seen := make(map[int64]bool)
		for _, l := range ls[i] {
			if knownLeaks[c.String()][l.Seed] {
				seen[l.Seed] = true
				fmt.Fprintf(stderr, "bench: warning: %s leaks on gadget seed %d (%s), a known open bug exempted from the check\n",
					c, l.Seed, strings.Join(l.Components, "+"))
				continue
			}
			r.Leaks = append(r.Leaks, leakcheck.SeedLeak{Seed: l.Seed,
				Leak: leakcheck.Leak{Params: leakcheck.Generate(l.Seed), Config: c, Components: l.Components}})
		}
		for s := range knownLeaks[c.String()] {
			if s >= first && s < first+int64(seeds) && !seen[s] {
				fmt.Fprintf(stderr, "bench: warning: %s no longer leaks on gadget seed %d; remove it from knownLeaks\n", c, s)
			}
		}
		if v := r.Verdict(); v != "" {
			failed := 1
			if c.Secure() {
				failed = len(r.Leaks)
			}
			rep.fail(failed, "%s", v)
		}
	}
}

// sweepFirst is the first gadget seed of a part: a run at seed N sweeps
// [256·N, 256·N + parts·seeds), a part its own slice of that range.
func sweepFirst(o options, sz sizes, part int) int64 {
	return 256*o.seed + int64(part*sz.seeds)
}

func sweepChild(o options, ready func(), stderr io.Writer) (*childReport, error) {
	sz := sizesFor(o)
	cfgs := sweepConfigs()
	parts := []int{o.part}
	if o.part < 0 {
		parts = parts[:0]
		for p := 0; p < sz.parts; p++ {
			parts = append(parts, p)
		}
	}
	// Set-up derives every seed's gadget parameters.
	var params []leakcheck.Params
	for _, p := range parts {
		for s := 0; s < sz.seeds; s++ {
			params = append(params, leakcheck.Generate(sweepFirst(o, sz, p)+int64(s)).Normalize())
		}
	}
	ready()
	if o.setupOnly {
		return nil, nil
	}

	rep := &childReport{Ops: len(params) * len(cfgs)}
	var full [][]leakcheck.SeedLeak
	t := time.Now()
	for _, p := range parts {
		s, f, chunkMS, err := sweepChunks(cfgs, sweepFirst(o, sz, p), sz)
		if err != nil {
			return nil, err
		}
		s.verdicts(rep, cfgs, sweepFirst(o, sz, p), sz.seeds, stderr)
		rep.Digests = append(rep.Digests, s.digest(cfgs))
		rep.OpMS = append(rep.OpMS, chunkMS...)
		if full == nil {
			full = f
		}
	}
	wallU := time.Since(t)
	if !o.trace {
		rep.WorkS = wallU.Seconds()
		return rep, nil
	}
	return rep, sweepTraced(o, sz, cfgs, params, len(parts), full, wallU, rep, stderr)
}

// sweepChunks runs leakcheck.Sweep over one part's seeds in chunks, timing
// each call, and returns the leak sets, the full leaks and the chunk times.
func sweepChunks(cfgs []leakcheck.Config, first int64, sz sizes) (leakSets, [][]leakcheck.SeedLeak, []float64, error) {
	sets := make(leakSets, len(cfgs))
	full := make([][]leakcheck.SeedLeak, len(cfgs))
	var chunkMS []float64
	for start := 0; start < sz.seeds; start += sz.chunk {
		n := min(sz.chunk, sz.seeds-start)
		t := time.Now()
		res, err := leakcheck.Sweep(context.Background(), cfgs, first+int64(start), n, workers)
		chunkMS = append(chunkMS, ms(time.Since(t)))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("leakcheck.Sweep: %w", err)
		}
		for i, r := range res {
			full[i] = append(full[i], r.Leaks...)
			for _, l := range r.Leaks {
				sets[i] = append(sets[i], pairLeak{Seed: l.Seed, Components: l.Leak.Components})
			}
		}
	}
	sets.sort()
	return sets, full, chunkMS, nil
}

// pairRun is one decomposed differential pair.
type pairRun struct {
	diff  []string
	res   [2]sim.Result
	runNS [2]int64
	err   error
}

// checkPair is leakcheck.Check decomposed into its public calls, a span
// around each: generate the gadget, then per secret build, make a core
// with observation traces, run, capture the observation; then diff.
func checkPair(rec *recorder, op, seed int64, cfg leakcheck.Config) pairRun {
	id, start := rec.id(), time.Now()
	defer func() { rec.add(id, 0, op, "leakcheck.pair", start, time.Now()) }()
	var pr pairRun
	var p leakcheck.Params
	rec.time(id, op, "leakcheck.Generate", func() { p = leakcheck.Generate(seed).Normalize() })
	simCfg := cfg.SimConfig(p)
	var obs [2]sim.Observation
	for k, secret := range []uint8{p.SecretA, p.SecretB} {
		var prog *sim.Program
		var c *sim.Core
		rec.time(id, op, "leakcheck.Params.Build", func() { prog = p.Build(secret) })
		rec.time(id, op, "sim.NewCore", func() {
			if c, pr.err = sim.NewCore(prog, simCfg); pr.err == nil {
				c.EnableObsTraces()
			}
		})
		if pr.err != nil {
			return pr
		}
		pr.runNS[k] = rec.time(id, op, "pipeline.Core.Run", func() { pr.err = c.Run(simCfg.MaxInsts, simCfg.MaxCycles) }).Nanoseconds()
		if pr.err != nil {
			return pr
		}
		rec.time(id, op, "sim.CaptureObservation", func() { sim.CaptureObservation(&obs[k], c, prog) })
		rec.time(id, op, "sim.Summarize", func() { pr.res[k] = sim.Summarize(prog, simCfg, c) })
	}
	rec.time(id, op, "sim.Observation.DiffAll", func() { pr.diff = obs[0].DiffAll(&obs[1]) })
	return pr
}

// sweepTraced re-runs every part's sweep decomposed at the same
// parallelism; its leak sets must equal leakcheck.Sweep's exactly.
func sweepTraced(o options, sz sizes, cfgs []leakcheck.Config, params []leakcheck.Params, nparts int,
	full [][]leakcheck.SeedLeak, wallU time.Duration, rep *childReport, stderr io.Writer) error {
	rec := newRecorder()
	pairs := make([]pairRun, len(cfgs)*len(params))
	t := time.Now()
	parallel(len(pairs), workers, func(i int) {
		ci, j := i/len(params), i%len(params)
		pairs[i] = checkPair(rec, int64(i+1), params[j].Seed, cfgs[ci])
	})
	wallD := time.Since(t)

	got := make([]leakSets, nparts)
	for p := range got {
		got[p] = make(leakSets, len(cfgs))
	}
	ag := newRunAggregate()
	var cleanupNS, unsafeNS float64
	leaky := 0
	for i, pr := range pairs {
		ci, j := i/len(params), i%len(params)
		seed := params[j].Seed
		if pr.err != nil {
			return fmt.Errorf("%s seed %d: %w", cfgs[ci], seed, pr.err)
		}
		if len(pr.diff) > 0 {
			p := j / sz.seeds
			got[p][ci] = append(got[p][ci], pairLeak{Seed: seed, Components: pr.diff})
			leaky++
		}
		for k := range pr.res {
			ag.add(cfgs[ci].Scheme, pr.res[k], pr.runNS[k])
			switch cfgs[ci].Scheme {
			case sim.Cleanup:
				cleanupNS += float64(pr.runNS[k])
			case sim.Unsafe:
				unsafeNS += float64(pr.runNS[k])
			}
		}
	}
	for p, g := range got {
		g.sort()
		if d := g.digest(cfgs); d != rep.Digests[p] {
			rep.fail(1, "part %d: decomposed leak sets (digest %s) differ from leakcheck.Sweep's (%s)", p, d, rep.Digests[p])
		}
	}
	rep.WorkS = wallD.Seconds()

	L := ag.metrics()
	toUS := func(xs []float64) float64 { return median(xs) * 1000 }
	L["leakcheck.build_us"] = toUS(rec.durations("leakcheck.Params.Build"))
	L["leakcheck.diff_us"] = toUS(rec.durations("sim.Observation.DiffAll"))
	L["sim.observe_ms"] = median(rec.durations("sim.CaptureObservation"))
	L["leakcheck.leaky_pairs"] = float64(leaky)
	if unsafeNS > 0 {
		L["mem.undo_cpu_ratio"] = cleanupNS / unsafeNS
	}
	L["trace.overhead_ratio"] = wallD.Seconds() / wallU.Seconds()

	// Minimize the first unsafe leaks, the step a campaign runs per new leak.
	var minMS []float64
	for ci, c := range cfgs {
		for _, l := range full[ci] {
			if c.Secure() || len(minMS) == 8 {
				break
			}
			t := time.Now()
			if _, err := leakcheck.Minimize(context.Background(), l.Leak); err != nil {
				return fmt.Errorf("leakcheck.Minimize: %w", err)
			}
			minMS = append(minMS, ms(time.Since(t)))
		}
	}
	L["leakcheck.minimize_ms"] = median(minMS)
	p := params[0]
	var err error
	if L["sim.newcore_ms"], L["sim.newcore_alloc_mb"], err = probeNewCore(p.Build(p.SecretA), cfgs[0].SimConfig(p), sz.probeN); err != nil {
		return err
	}
	rep.Layer = L
	return finishTrace(o, rec, stderr)
}
