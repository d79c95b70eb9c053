package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"doppelganger/api"
	"doppelganger/internal/engine"
	"doppelganger/internal/leakcheck"
	"doppelganger/sim"
)

// batchSize is how many genomes are fanned through the engine per batch.
const batchSize = 8

// Options configures one campaign run.
type Options struct {
	// Configs is the scheme matrix each genome's differential pair is
	// evaluated under. Defaults to leakcheck.DefaultConfigs(). Mutation
	// configs are legitimate targets: a campaign over them is the
	// coverage-guided version of the mutation gauntlet.
	Configs []leakcheck.Config
	// Budget is the number of genome evaluations (each is one
	// differential pair simulated under every config).
	Budget int
	// Seed drives the scheduler and mutators. A fixed seed makes the
	// whole campaign deterministic.
	Seed int64
	// CorpusPath, when non-empty, persists the corpus (and resumes from
	// it). Empty runs fully in memory.
	CorpusPath string
	// Engine, when non-nil, is used for all simulations (sharing its
	// cache and worker pool); otherwise a private engine is created for
	// the run.
	Engine *engine.Engine
	// Blind disables coverage feedback and draws genomes from the
	// historical sweep generator (leakcheck.Generate) instead — the
	// pre-campaign status quo. Coverage is still recorded, so a blind run
	// is the baseline a campaign's guidance is measured against: the
	// campaign must reach behaviours (whole gadget families, the
	// kind-specific parameter corners) that generator's frozen stream
	// never samples.
	Blind bool
	// Logf, when non-nil, receives one progress line per batch.
	Logf func(format string, args ...any)
}

// Summary is what a campaign run produced (and, via Leaks, everything the
// corpus now holds).
type Summary struct {
	Evals         int `json:"evals"`
	Pairs         int `json:"pairs"`
	Cells         int `json:"cells"`
	CorpusInputs  int `json:"corpus_inputs"`
	ResumedInputs int `json:"resumed_inputs,omitempty"`
	NewLeaks      int `json:"new_leaks"`
	DupLeaks      int `json:"dup_leaks"`
	// Leaks is the corpus's full minimized-reproducer set, pre-existing
	// ones included, sorted by config then kind.
	Leaks []LeakRecord `json:"leaks"`
}

// Response renders the summary as the campaign wire reply, echoing the
// run's effective budget and seed under the given id.
func (s *Summary) Response(id string, budget int, seed int64) api.CampaignResponse {
	resp := api.CampaignResponse{
		Schema: api.SchemaVersion, ID: id, Budget: budget, Seed: seed,
		Evals: s.Evals, Pairs: s.Pairs, Cells: s.Cells,
		NewLeaks: s.NewLeaks, DupLeaks: s.DupLeaks,
	}
	for _, lk := range s.Leaks {
		resp.Leaks = append(resp.Leaks, api.CampaignLeak{
			Config:     lk.Config.String(),
			Params:     lk.Params.String(),
			Components: lk.Components,
			Clauses:    lk.Clauses,
			Key:        lk.Key,
		})
	}
	return resp
}

// Failures lists one SECURITY line per corpus leak under a config that
// must be leak-free on that gadget kind (leakcheck.Config.Defends): an
// unmutated secure scheme leaking within its threat model. Empty means the
// campaign's expectation holds.
func (s *Summary) Failures() []string {
	var out []string
	for _, lk := range s.Leaks {
		if lk.Config.Defends(lk.Params.Kind) {
			out = append(out, fmt.Sprintf("SECURITY: %s leaks via %s (%s)",
				lk.Config, strings.Join(lk.Components, ","), lk.Params))
		}
	}
	return out
}

// Run executes a campaign: resume the corpus, then spend the budget on
// scheduler-chosen genomes, folding every evaluation into the coverage map
// and every novel leak — behaviour-deduped, minimized, reproducer-deduped —
// into the corpus.
func Run(ctx context.Context, opts Options) (*Summary, error) {
	cfgs := opts.Configs
	if len(cfgs) == 0 {
		cfgs = leakcheck.DefaultConfigs()
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("campaign: budget must be positive")
	}
	for _, cfg := range cfgs {
		// Engine jobs run cold while Minimize replays leaks through the
		// checkpoint path, so a warm config would find and minimise a
		// leak on two different programs.
		if cfg.WarmupInsts > 0 {
			return nil, fmt.Errorf("campaign: %s: warm-started configs are not supported (WarmupInsts=%d)", cfg, cfg.WarmupInsts)
		}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.Options{})
		defer eng.Close()
	}

	var corpus *Corpus
	var err error
	if opts.CorpusPath != "" {
		if corpus, err = OpenCorpus(opts.CorpusPath); err != nil {
			return nil, err
		}
		defer corpus.Close()
	} else {
		corpus = NewCorpus()
	}

	cov := NewMap()
	sched := NewScheduler(opts.Seed)
	for _, in := range corpus.Inputs {
		// Simulation-free resume: the stored cells rebuild the coverage
		// map and the scheduler's energies exactly as the original
		// evaluations did.
		sched.Add(in.Params, cov.Add(in.Cells))
	}
	resumed := len(corpus.Inputs)
	if resumed > 0 {
		logf("campaign: resumed %d inputs, %d leaks, %d cells from corpus",
			resumed, len(corpus.Leaks), cov.Count())
	}
	blindRng := rand.New(rand.NewSource(opts.Seed))

	// Evaluated-genome filter. Mutate + Normalize can reproduce a genome
	// that was already evaluated (ops on fields the kind ignores clamp
	// away); re-simulating one is pure budget waste, so guided draws retry
	// a few times for novelty. Blind draws stay unfiltered — the baseline
	// is the raw random sweep, not random-with-campaign-bookkeeping.
	seen := make(map[string]bool)
	for _, in := range corpus.Inputs {
		seen[in.Params.String()] = true
	}

	sum := &Summary{ResumedInputs: resumed}
	lattice := sim.Lattice()
	var minRunner sim.Runner // every minimisation's core
	for sum.Evals < opts.Budget {
		n := min(batchSize, opts.Budget-sum.Evals)
		genomes := make([]leakcheck.Params, n)
		for i := range genomes {
			if opts.Blind {
				genomes[i] = leakcheck.Generate(blindRng.Int63())
				continue
			}
			g := sched.Next()
			for tries := 0; seen[g.String()] && tries < 8; tries++ {
				sched.Forget(g)
				g = sched.Next()
			}
			seen[g.String()] = true
			genomes[i] = g
		}

		jobs := make([]engine.Job, 0, 2*n*len(cfgs))
		for _, g := range genomes {
			pa, pb := g.Build(g.SecretA), g.Build(g.SecretB)
			for _, cfg := range cfgs {
				sc := cfg.SimConfig(g)
				jobs = append(jobs,
					engine.Job{Program: pa, Config: sc, Observe: lattice},
					engine.Job{Program: pb, Config: sc, Observe: lattice})
			}
		}
		results, obses, err := eng.RunBatchObserved(ctx, jobs, nil)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}

		ji := 0
		for _, g := range genomes {
			var cells []uint64
			for _, cfg := range cfgs {
				ev := PairEval{
					Params: g, Config: cfg,
					ResA: results[ji], ResB: results[ji+1],
					ObsA: obses[ji], ObsB: obses[ji+1],
					Leak: leakcheck.PairLeak(g, cfg, obses[ji], obses[ji+1]),
				}
				ji += 2
				cells = append(cells, ev.Cells()...)
				sum.Pairs++
				if ev.Leak == nil {
					continue
				}
				if err := recordLeak(ctx, &minRunner, corpus, ev.Leak, sum, logf); err != nil {
					return nil, err
				}
			}
			fresh := cov.Add(cells)
			if !opts.Blind {
				// Feed back even zero-yield evaluations: the bandit needs
				// to know when an arm stops paying.
				sched.Add(g, fresh)
			}
			if fresh > 0 {
				if _, err := corpus.AddInput(InputRecord{Params: g, Cells: uniqCells(cells)}); err != nil {
					return nil, err
				}
			}
			sum.Evals++
		}
		logf("campaign: %d/%d evals, %d cells, %d inputs, %d new + %d dup leaks",
			sum.Evals, opts.Budget, cov.Count(), len(corpus.Inputs), sum.NewLeaks, sum.DupLeaks)
	}

	sum.Cells = cov.Count()
	sum.CorpusInputs = len(corpus.Inputs)
	sum.Leaks = append([]LeakRecord(nil), corpus.Leaks...)
	sort.Slice(sum.Leaks, func(i, j int) bool {
		a, b := sum.Leaks[i], sum.Leaks[j]
		if ac, bc := a.Config.String(), b.Config.String(); ac != bc {
			return ac < bc
		}
		return a.Key < b.Key
	})
	return sum, nil
}

// recordLeak folds one leaking pair into the corpus: drop it if its
// behavioural signature is already represented, otherwise minimize the
// reproducer on r and store it (unless a checksum-identical reproducer
// arrived through another path first).
func recordLeak(ctx context.Context, r *sim.Runner, corpus *Corpus, leak *leakcheck.Leak,
	sum *Summary, logf func(string, ...any)) error {
	var clauses []string
	for _, c := range leak.LeakingClauses() {
		clauses = append(clauses, c.String())
	}
	sig := LeakSig(leak.Config, leak.Params.Kind, leak.Components, clauses)
	if corpus.HasLeakSig(sig) {
		sum.DupLeaks++
		return nil
	}
	params, err := leakcheck.MinimizeOn(ctx, r, *leak)
	if err != nil {
		return fmt.Errorf("campaign: minimizing %s: %w", leak.Params, err)
	}
	added, err := corpus.AddLeak(LeakRecord{
		Params: params.Normalize(), Config: leak.Config,
		Components: leak.Components, Clauses: clauses,
		Sig: sig, Key: LeakKey(params, leak.Config),
	})
	if err != nil {
		return err
	}
	if added {
		sum.NewLeaks++
		logf("campaign: new leak under %s via %v (%s)", leak.Config, leak.Components, params)
	} else {
		sum.DupLeaks++
	}
	return nil
}

func uniqCells(cells []uint64) []uint64 {
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	out := cells[:0]
	for i, c := range cells {
		if i == 0 || c != cells[i-1] {
			out = append(out, c)
		}
	}
	return append([]uint64(nil), out...)
}
