package leakcheck

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"doppelganger/internal/program"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// Config names one cell of the scheme matrix a gadget is checked under.
type Config struct {
	Scheme secure.Scheme
	// AP enables doppelganger loads (address prediction).
	AP bool
	// Mutation plants a deliberate weakening of the scheme's protection
	// (mutation mode only; MutNone for real checking).
	Mutation secure.Mutation
	// WarmupInsts, when positive, routes each gadget run through the
	// checkpoint subsystem: warm this many instructions under the target
	// scheme, snapshot, restore, and run the remainder from the
	// checkpoint. Both halves of a differential pair get the identical
	// treatment, so the within-pair digest comparison — the leak oracle —
	// is unchanged; what this sweeps for is divergence *introduced by*
	// snapshot/restore itself.
	WarmupInsts uint64
}

// String renders the config as e.g. "dom+ap" or "stt!stt-no-taint".
func (c Config) String() string {
	s := c.Scheme.String()
	if c.AP {
		s += "+ap"
	}
	if c.Mutation != secure.MutNone {
		s += "!" + c.Mutation.String()
	}
	return s
}

// Secure reports whether the config is expected to be leak-free: a secure
// scheme with its protection intact. The unsafe baseline and every planted
// mutation are expected to leak.
func (c Config) Secure() bool {
	return c.Scheme.Info().Threat != 0 && c.Mutation == secure.MutNone
}

// Defends reports whether the config must be leak-free on gadgets of kind
// k: it is Secure and its scheme's threat model covers the speculation the
// gadget exploits (stt-spectre's Spectre model excludes store bypass).
func (c Config) Defends(k Kind) bool {
	src := secure.ControlSpeculation // every other family mispredicts a branch
	if k == KindStoreBypass {
		src = secure.StoreSpeculation
	}
	return c.Secure() && c.Scheme.Info().Threat.Covers(src)
}

// Configs is the scheme matrix schemes x aps, scheme-major.
func Configs(schemes []secure.Scheme, aps []bool) []Config {
	var out []Config
	for _, s := range schemes {
		for _, ap := range aps {
			out = append(out, Config{Scheme: s, AP: ap})
		}
	}
	return out
}

// DefaultConfigs is the scheme matrix the checker's library callers (the
// campaign, the fuzz target, corpus replay) sweep: the registry's paper
// schemes, {unsafe, NDA-P, STT, DoM} x {address prediction off, on}.
func DefaultConfigs() []Config { return Configs(secure.Schemes(), []bool{false, true}) }

// defaultMaxCycles bounds one gadget run. Gadgets are a few thousand
// cycles; anything near this bound is a wedged machine, reported as an
// error rather than a leak.
const defaultMaxCycles = 10_000_000

// Leak reports a divergence between the two runs of a differential pair:
// the named digest components are attacker-observable state in which the
// runs — identical but for the secret byte — disagree. ObsA and ObsB hold
// the full-lattice observations, so the leak can be re-examined under any
// contract clause; their Micro fields are the two µarch digests.
type Leak struct {
	Params     Params
	Config     Config
	Components []string
	ObsA       sim.Observation
	ObsB       sim.Observation
}

// String summarises the leak on one line.
func (l *Leak) String() string {
	return fmt.Sprintf("leak under %s via %v (%s)", l.Config, l.Components, l.Params)
}

// LeakingClauses returns the contract clauses under which the pair is
// distinguishable, in canonical lattice order — the cells this leak
// downgrades. A transient-only leak names ct-spec (and pc-spec if control
// flow diverged); a predictor leak trained at commit also names seq cells.
func (l *Leak) LeakingClauses() []sim.Clause {
	var out []sim.Clause
	for _, c := range sim.Lattice() {
		if len(l.ObsA.Diff(&l.ObsB, c)) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Check runs the gadget's differential pair under the config and returns
// the leak, or nil if the runs are indistinguishable under the strongest
// contract clause (the full observation lattice: every µarch component,
// the committed and transient address/control traces, and the
// secret-filtered architectural state). The error path is infrastructure
// failure (context cancellation, wedged simulation), never a leak.
func Check(ctx context.Context, p Params, cfg Config) (*Leak, error) {
	return check(ctx, new(sim.Runner), p, cfg)
}

// check is Check on the runner's core.
func check(ctx context.Context, r *sim.Runner, p Params, cfg Config) (*Leak, error) {
	return checkBuilt(ctx, r, build(p), cfg)
}

// built is a gadget's normalized parameters with its differential pair's
// two programs, built once for every config that checks it: a run copies
// a program's initial memory and never writes to it.
type built struct {
	p     Params
	progs [2]*program.Program // built with p.SecretA, p.SecretB
}

func build(p Params) built {
	p = p.Normalize()
	return built{p, [2]*program.Program{p.Build(p.SecretA), p.Build(p.SecretB)}}
}

// checkBuilt is check on a built pair. The pair's two runs share one
// configuration, so the second resets the first's core.
func checkBuilt(ctx context.Context, r *sim.Runner, g built, cfg Config) (*Leak, error) {
	var obs [2]sim.Observation
	for i, secret := range [2]uint8{g.p.SecretA, g.p.SecretB} {
		var err error
		if obs[i], err = observationOf(ctx, r, g.p, g.progs[i], cfg, secret); err != nil {
			return nil, err
		}
	}
	return PairLeak(g.p, cfg, obs[0], obs[1]), nil
}

// PairLeak is the leak verdict on a differential pair's two observations:
// nil when they agree under the strongest observed clause, otherwise the
// Leak naming every differing component. Its LeakingClauses are the
// contract clauses the pair violates. Check, Sweep, ContractSweep and the
// campaign's engine-run pairs all judge through it.
func PairLeak(p Params, cfg Config, oa, ob sim.Observation) *Leak {
	if diff := oa.DiffAll(&ob); len(diff) > 0 {
		return &Leak{Params: p, Config: cfg, Components: diff, ObsA: oa, ObsB: ob}
	}
	return nil
}

// SimConfig lowers the scheme-matrix cell to a full simulator config for
// one gadget's runs: the gadget's own core requirements (the branch-poison
// kind swaps in its gshare predictor) with the config's mutation applied.
// The campaign runner shares this lowering so engine-run and in-process
// checks agree on what "the same pair" means.
func (c Config) SimConfig(p Params) sim.Config {
	core := p.CoreConfig()
	core.Mutation = c.Mutation
	return sim.Config{
		Scheme:            c.Scheme,
		AddressPrediction: c.AP,
		MaxCycles:         defaultMaxCycles,
		Core:              &core,
	}
}

// observationOf runs the gadget's program for one secret to completion,
// observing the full contract lattice. With WarmupInsts set the run goes
// through snapshot/restore midway instead of straight-line; both secrets
// of a pair take the same path, so observations stay comparable. Every
// run goes through r.
func observationOf(ctx context.Context, r *sim.Runner, p Params, prog *program.Program, cfg Config, secret uint8) (sim.Observation, error) {
	simCfg := cfg.SimConfig(p)
	var o sim.Observation
	var err error
	if cfg.WarmupInsts > 0 {
		var ck *sim.Checkpoint
		ck, err = r.Snapshot(prog, simCfg, cfg.WarmupInsts)
		if err == nil {
			_, err = r.RunFromCheckpoint(ctx, prog, simCfg, ck, sim.Observe(&o))
		}
	} else {
		_, err = r.RunContext(ctx, prog, simCfg, sim.Observe(&o))
	}
	if err != nil {
		return sim.Observation{}, fmt.Errorf("leakcheck: %s secret=0x%02x: %w", p, secret, err)
	}
	return o, nil
}

// SeedLeak pairs a leak with the seed that produced its gadget.
type SeedLeak struct {
	Seed int64
	Leak Leak
}

// SweepResult aggregates one config's leaks over a seed range.
type SweepResult struct {
	Config Config
	Seeds  int
	Leaks  []SeedLeak
}

// Verdict classifies the sweep result against the expectation that secure
// configs never leak (on gadgets they Defend) and the unsafe baseline always
// can. It returns a non-empty failure description, or "" if as expected.
func (r SweepResult) Verdict() string {
	var failing []SeedLeak
	for _, sl := range r.Leaks {
		if r.Config.Defends(sl.Leak.Params.Kind) {
			failing = append(failing, sl)
		}
	}
	switch {
	case len(failing) > 0:
		return fmt.Sprintf("SECURITY: %d/%d seeds leak under %s (first: %s)",
			len(failing), r.Seeds, r.Config, failing[0].Leak.String())
	case !r.Config.Secure() && len(r.Leaks) == 0:
		return fmt.Sprintf("VACUOUS: %s leaked on 0/%d seeds — the oracle saw nothing",
			r.Config, r.Seeds)
	default:
		return ""
	}
}

// Sweep checks seeds [firstSeed, firstSeed+seeds) under every config,
// running up to workers gadget checks concurrently, each worker on one
// sim.Runner for all its pairs. Each seed's gadget pair is built once per
// call and shared by every config, so a call holds the pairs of all its
// seeds, about 10 KB each, until it returns. Results are returned in
// config order with leaks sorted by seed. A non-nil error aborts the sweep
// (first infrastructure failure wins).
func Sweep(ctx context.Context, cfgs []Config, firstSeed int64, seeds, workers int) ([]SweepResult, error) {
	if workers < 1 {
		workers = 1
	}
	results := make([]SweepResult, len(cfgs))
	for i, cfg := range cfgs {
		results[i] = SweepResult{Config: cfg, Seeds: seeds}
	}

	type job struct {
		cfg  int
		seed int64
	}
	// Every config checks the same seeds, so each seed's pair is built
	// once, by the first job to need it.
	gadgets := make([]struct {
		once sync.Once
		g    built
	}, seeds)
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r sim.Runner
			for j := range jobs {
				g := &gadgets[j.seed-firstSeed]
				g.once.Do(func() { g.g = build(Generate(j.seed)) })
				leak, err := checkBuilt(cctx, &r, g.g, cfgs[j.cfg])
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel()
					}
				} else if leak != nil {
					results[j.cfg].Leaks = append(results[j.cfg].Leaks, SeedLeak{Seed: j.seed, Leak: *leak})
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for ci := range cfgs {
		for s := int64(0); s < int64(seeds); s++ {
			select {
			case jobs <- job{cfg: ci, seed: firstSeed + s}:
			case <-cctx.Done():
				break feed
			}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range results {
		sort.Slice(results[i].Leaks, func(a, b int) bool {
			return results[i].Leaks[a].Seed < results[i].Leaks[b].Seed
		})
	}
	return results, nil
}

// MutationOutcome reports whether the leak checker caught one planted
// weakening of a scheme's protection.
type MutationOutcome struct {
	Mutation secure.Mutation
	Config   Config
	// Detected is true when some seed's gadget leaked under the mutated
	// scheme; Seed is the first such seed and Leak the divergence.
	Detected   bool
	Seed       int64
	SeedsTried int
	Leak       *Leak
	// Downgrades lists the contract clauses the detecting leak violates:
	// the cells of the scheme's contract matrix the planted weakening
	// demotes from satisfied to leaked.
	Downgrades []sim.Clause
}

// Verdict classifies the outcome against the expectation that every
// planted weakening is caught and demotes at least one contract cell. It
// returns a non-empty failure description, or "" if as expected.
func (o MutationOutcome) Verdict() string {
	switch {
	case !o.Detected:
		return fmt.Sprintf("BLIND: planted mutation %s under %s not detected in %d seeds",
			o.Mutation, o.Config, o.SeedsTried)
	case len(o.Downgrades) == 0:
		return fmt.Sprintf("NO DOWNGRADE: mutation %s caught but no contract cell leaked", o.Mutation)
	default:
		return ""
	}
}

// GauntletParams is the gadget stream the mutation gauntlet hunts with:
// Generate's frozen stream, plus a per-target bias the stream itself cannot
// express. Weakenings of an undo scheme (Cleanup) only become observable
// when the wrong-path fill evicts a valid line — rollback into an invalid
// way is identical with or without the planted bug — so for those targets
// every hunted gadget gets Prime set, filling the L1 before the body runs.
func GauntletParams(seed int64, m secure.Mutation) Params {
	p := Generate(seed)
	if scheme, _ := m.Target(); scheme.UndoesSpeculation() {
		p.Prime = true
	}
	return p
}

// MutationGauntlet plants each weakening of secure.Mutations into its
// target scheme and hunts seeds [firstSeed, firstSeed+maxSeeds) for a
// gadget that exposes it. Every mutation must be Detected, or the oracle
// is blind to that protection. Mutations are hunted concurrently, each on
// one sim.Runner; seeds within one mutation sequentially (so Seed is the
// smallest detecting seed).
func MutationGauntlet(ctx context.Context, firstSeed int64, maxSeeds int) ([]MutationOutcome, error) {
	muts := secure.Mutations()
	out := make([]MutationOutcome, len(muts))
	errs := make([]error, len(muts))
	var wg sync.WaitGroup
	for i, m := range muts {
		scheme, needAP := m.Target()
		out[i] = MutationOutcome{Mutation: m, Config: Config{Scheme: scheme, AP: needAP, Mutation: m}}
		wg.Add(1)
		go func(i int, m secure.Mutation) {
			defer wg.Done()
			o := &out[i]
			var r sim.Runner
			for s := int64(0); s < int64(maxSeeds); s++ {
				seed := firstSeed + s
				leak, err := check(ctx, &r, GauntletParams(seed, m), o.Config)
				o.SeedsTried++
				if err != nil {
					errs[i] = err
					return
				}
				if leak != nil {
					o.Detected = true
					o.Seed = seed
					o.Leak = leak
					o.Downgrades = leak.LeakingClauses()
					return
				}
			}
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
