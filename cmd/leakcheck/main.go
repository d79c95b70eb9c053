// Command leakcheck runs the differential side-channel checker: randomized
// transient-execution gadgets are executed twice with only the secret bytes
// differing, and any divergence in attacker-observable state — per contract
// clause, from secret-filtered architectural state up through caches, MSHR
// timeline, predictors, traffic, trace digests and cycles — is reported as
// a leak.
//
//	leakcheck -seeds 256                      # full matrix + mutation gauntlet
//	leakcheck -seeds 64 -schemes stt,dom      # subset of the scheme matrix
//	leakcheck -seeds 1024 -json               # machine-readable report
//	leakcheck -seeds 256 -minimize            # shrink each reproducer
//	leakcheck -seed 42 -schemes dom -ap on    # one seed, one cell, with disasm
//	leakcheck -seeds 256 -warmup 200          # every run forked from a mid-gadget checkpoint
//	leakcheck -contracts -seeds 64            # per-scheme contract matrix
//	leakcheck -contracts -golden m.json       # diff the matrix against a golden
//	leakcheck -campaign -budget 512           # coverage-guided campaign
//	leakcheck -campaign -corpus .corpus/c.dgcf # ... resumable across invocations
//	leakcheck -campaign -schemes 'dom!dom-issue-miss' # hunt a planted weakening
//	leakcheck -campaign -schemes 'cleanup!cleanup-no-lru-undo' # hunt a broken rollback
//
// Exit status: 0 when every expectation holds (secure schemes silent on the
// gadgets their threat model covers, the unsafe baseline divergent, every
// planted mutation caught — in contract mode: the measured matrix matches
// the golden and every mutation downgrades at least one cell; in campaign
// mode: no unmutated secure config leaks), 1 when any fails, 2 on usage or
// infrastructure errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"doppelganger/internal/campaign"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// Envelope schema: bumped from the original (implicit) version 1 when the
// report grew scheme/ap/tool metadata and contract-matrix sections. Old
// fields keep their names and meaning; consumers select on schema_version.
const (
	schemaVersion = 2
	toolVersion   = "0.9.0"
)

func main() {
	var (
		seeds        = flag.Int("seeds", 256, "number of gadget seeds to sweep per config")
		firstSeed    = flag.Int64("first", 0, "first seed of the sweep")
		oneSeed      = flag.Int64("seed", -1, "check a single seed (prints its disassembly); overrides -seeds/-first")
		schemes      = flag.String("schemes", strings.Join(secure.Names(secure.AllSchemes()), ","), "comma-separated schemes to sweep; scheme!mutation plants a gauntlet weakening")
		apMode       = flag.String("ap", "both", "doppelganger loads: on, off or both")
		mutations    = flag.Bool("mutations", true, "also run the mutation gauntlet (planted scheme weakenings must be caught)")
		mutSeeds     = flag.Int("mutation-seeds", 64, "max seeds to hunt per planted mutation")
		minimize     = flag.Bool("minimize", false, "minimize each leaking reproducer")
		warmup       = flag.Uint64("warmup", 0, "route each run through snapshot/restore after N warmed instructions (0 = straight-line; refused with -campaign)")
		contracts    = flag.Bool("contracts", false, "evaluate the full contract lattice and emit the per-scheme contract matrix")
		campaignRun  = flag.Bool("campaign", false, "run a coverage-guided campaign instead of a fixed-seed sweep")
		budget       = flag.Int("budget", 256, "campaign mode: genome evaluations to spend")
		corpusPath   = flag.String("corpus", "", "campaign mode: persistent corpus file (resumed when present)")
		blind        = flag.Bool("blind", false, "campaign mode: disable coverage guidance (baseline sweep generator)")
		golden       = flag.String("golden", "", "contract mode: compare the measured matrix against this golden JSON file")
		updateGolden = flag.Bool("update-golden", false, "contract mode: write the measured matrix to the -golden path instead of comparing")
		jsonOut      = flag.Bool("json", false, "emit the report as JSON")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent gadget checks")
	)
	flag.Parse()

	cfgs, err := parseConfigs(*schemes, *apMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(2)
	}
	for i := range cfgs {
		cfgs[i].WarmupInsts = *warmup
	}
	first, n := *firstSeed, *seeds
	if *oneSeed >= 0 {
		first, n = *oneSeed, 1
	}

	ctx := context.Background()
	if *campaignRun {
		runCampaign(ctx, cfgs, *budget, first, *corpusPath, *blind, *jsonOut)
		return
	}
	rep := report{
		Schema:    schemaVersion,
		Tool:      toolMeta{Name: "leakcheck", Version: toolVersion},
		Schemes:   strings.Split(*schemes, ","),
		AP:        *apMode,
		Seeds:     n,
		FirstSeed: first,
		Warmup:    *warmup,
	}
	for i := range rep.Schemes {
		rep.Schemes[i] = strings.TrimSpace(rep.Schemes[i])
	}

	if *contracts {
		runContracts(ctx, &rep, cfgs, first, n, *workers, *mutations, *mutSeeds, *golden, *updateGolden)
	} else {
		runClassic(ctx, &rep, cfgs, first, n, *workers, *mutations, *mutSeeds, *minimize, *oneSeed)
	}
	rep.OK = len(rep.Failures) == 0

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "leakcheck:", err)
			os.Exit(2)
		}
	} else if *contracts {
		printContracts(rep)
	} else {
		printText(rep)
	}
	if !rep.OK {
		os.Exit(1)
	}
}

// runCampaign is the coverage-guided mode: spend the budget on
// scheduler-chosen gadget genomes, persist (and resume) the corpus when a
// path is given, and emit the summary as an api.CampaignResponse. The
// security expectation is the same as a sweep's: an unmutated secure
// config must not leak on a gadget its threat model covers.
func runCampaign(ctx context.Context, cfgs []leakcheck.Config,
	budget int, seed int64, corpusPath string, blind, jsonOut bool) {
	opts := campaign.Options{
		Configs:    cfgs,
		Budget:     budget,
		Seed:       seed,
		CorpusPath: corpusPath,
		Blind:      blind,
	}
	if !jsonOut {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	sum, err := campaign.Run(ctx, opts)
	if err != nil {
		fatal(err)
	}

	resp := sum.Response("campaign-local", budget, seed)
	var failures []string
	for _, lk := range sum.Leaks {
		if lk.Config.Defends(lk.Params.Kind) {
			failures = append(failures,
				fmt.Sprintf("SECURITY: %s leaks via %s (%s)",
					lk.Config, strings.Join(lk.Components, ","), lk.Params))
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("leakcheck %s campaign: %d evals (%d pairs), %d coverage cells\n",
			toolVersion, sum.Evals, sum.Pairs, sum.Cells)
		fmt.Printf("  corpus: %d inputs (%d resumed), %d new + %d duplicate leaks\n",
			sum.CorpusInputs, sum.ResumedInputs, sum.NewLeaks, sum.DupLeaks)
		for _, lk := range sum.Leaks {
			fmt.Printf("  %-22s %s via %s\n", lk.Config, lk.Params, strings.Join(lk.Components, ","))
		}
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		if len(failures) == 0 {
			fmt.Println("ok: no unmutated secure config leaks within its threat model")
		}
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// runClassic is the original two-run boolean oracle: sweep + mutation
// gauntlet, verdicts against the secure/unsafe expectations.
func runClassic(ctx context.Context, rep *report, cfgs []leakcheck.Config,
	first int64, n, workers int, mutations bool, mutSeeds int, minimize bool, oneSeed int64) {
	sweeps, err := leakcheck.Sweep(ctx, cfgs, first, n, workers)
	if err != nil {
		fatal(err)
	}
	for _, sw := range sweeps {
		rs := sweepReport{Config: sw.Config.String(), Seeds: sw.Seeds}
		if v := sw.Verdict(); v != "" {
			rs.Verdict = v
			rep.Failures = append(rep.Failures, v)
		}
		for _, sl := range sw.Leaks {
			lr := leakReport{Seed: sl.Seed, Components: sl.Leak.Components, Params: sl.Leak.Params.String()}
			if minimize {
				min, err := leakcheck.Minimize(ctx, sl.Leak)
				if err != nil {
					fatal(err)
				}
				lr.Minimized = min.String()
			}
			if oneSeed >= 0 {
				lr.Disassembly = sl.Leak.Params.Disassemble()
			}
			rs.Leaks = append(rs.Leaks, lr)
		}
		rep.Sweeps = append(rep.Sweeps, rs)
	}

	if mutations {
		outcomes, err := leakcheck.MutationGauntlet(ctx, first, mutSeeds)
		if err != nil {
			fatal(err)
		}
		for _, o := range outcomes {
			rep.Mutations = append(rep.Mutations, mutationOutcomeReport(o, rep))
		}
	}
}

// runContracts evaluates the contract lattice per config, optionally
// checks the mutation gauntlet for contract downgrades, and diffs or
// updates the golden matrix.
func runContracts(ctx context.Context, rep *report, cfgs []leakcheck.Config,
	first int64, n, workers int, mutations bool, mutSeeds int, golden string, updateGolden bool) {
	results, err := leakcheck.ContractSweep(ctx, cfgs, first, n, workers)
	if err != nil {
		fatal(err)
	}
	for _, r := range results {
		cr := contractReport{Config: r.Config.String(), Seeds: r.Seeds}
		for _, c := range r.Cells {
			cc := clauseReport{Clause: c.Clause.String(), Leaks: c.Leaks, Components: c.Components}
			if c.Leaks > 0 {
				cc.FirstSeed = c.FirstSeed
			}
			cr.Cells = append(cr.Cells, cc)
		}
		for _, c := range r.Strongest() {
			cr.Strongest = append(cr.Strongest, c.String())
		}
		rep.Contracts = append(rep.Contracts, cr)

		// Built-in expectations, independent of the golden: a secure
		// scheme upholds at least the weakest contract; the unsafe
		// baseline must be distinguishable somewhere or the oracle is
		// vacuous.
		switch {
		case r.Config.Secure() && !r.Satisfies(sim.ArchSeq):
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("SECURITY: %s leaks under arch-seq (architectural leak)", r.Config))
		case !r.Config.Secure() && r.Satisfies(sim.CTSpec):
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("VACUOUS: %s satisfies ct-spec on %d seeds — the oracle saw nothing", r.Config, r.Seeds))
		}
	}
	matrix := leakcheck.MatrixOf(results)
	rep.Matrix = &matrix

	if mutations {
		outcomes, err := leakcheck.MutationGauntlet(ctx, first, mutSeeds)
		if err != nil {
			fatal(err)
		}
		for _, o := range outcomes {
			mr := mutationOutcomeReport(o, rep)
			if o.Detected && len(o.Downgrades) == 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("NO DOWNGRADE: mutation %s caught but no contract cell leaked", o.Mutation))
			}
			rep.Mutations = append(rep.Mutations, mr)
		}
	}

	switch {
	case golden != "" && updateGolden:
		data, err := matrix.MarshalIndent()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "leakcheck: wrote golden matrix to %s\n", golden)
	case golden != "":
		data, err := os.ReadFile(golden)
		if err != nil {
			fatal(err)
		}
		want, err := leakcheck.ParseMatrix(data)
		if err != nil {
			fatal(err)
		}
		for _, d := range matrix.Diff(want) {
			rep.Failures = append(rep.Failures, "GOLDEN: "+d)
		}
	}
}

// mutationOutcomeReport converts a gauntlet outcome, recording a failure
// on the report when the mutation went undetected.
func mutationOutcomeReport(o leakcheck.MutationOutcome, rep *report) mutationReport {
	mr := mutationReport{Mutation: o.Mutation.String(), Config: o.Config.String(),
		Detected: o.Detected, SeedsTried: o.SeedsTried}
	if o.Detected {
		mr.Seed = o.Seed
		mr.Components = o.Leak.Components
		for _, c := range o.Downgrades {
			mr.Downgrades = append(mr.Downgrades, c.String())
		}
	} else {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("BLIND: planted mutation %s under %s not detected in %d seeds",
				o.Mutation, o.Config, o.SeedsTried))
	}
	return mr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leakcheck:", err)
	os.Exit(2)
}

type toolMeta struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

type report struct {
	Schema    int      `json:"schema_version"`
	Tool      toolMeta `json:"tool"`
	Schemes   []string `json:"schemes"`
	AP        string   `json:"ap"`
	Seeds     int      `json:"seeds"`
	FirstSeed int64    `json:"first_seed"`
	Warmup    uint64   `json:"warmup_insts,omitempty"`

	Sweeps    []sweepReport             `json:"sweeps,omitempty"`
	Contracts []contractReport          `json:"contracts,omitempty"`
	Matrix    *leakcheck.ContractMatrix `json:"matrix,omitempty"`
	Mutations []mutationReport          `json:"mutations,omitempty"`
	Failures  []string                  `json:"failures,omitempty"`
	OK        bool                      `json:"ok"`
}

type sweepReport struct {
	Config  string       `json:"config"`
	Seeds   int          `json:"seeds"`
	Leaks   []leakReport `json:"leaks,omitempty"`
	Verdict string       `json:"verdict,omitempty"`
}

type leakReport struct {
	Seed        int64    `json:"seed"`
	Components  []string `json:"components"`
	Params      string   `json:"params"`
	Minimized   string   `json:"minimized,omitempty"`
	Disassembly string   `json:"disassembly,omitempty"`
}

type contractReport struct {
	Config    string         `json:"config"`
	Seeds     int            `json:"seeds"`
	Cells     []clauseReport `json:"cells"`
	Strongest []string       `json:"strongest"`
}

type clauseReport struct {
	Clause     string   `json:"clause"`
	Leaks      int      `json:"leaks"`
	FirstSeed  int64    `json:"first_seed,omitempty"`
	Components []string `json:"components,omitempty"`
}

type mutationReport struct {
	Mutation   string   `json:"mutation"`
	Config     string   `json:"config"`
	Detected   bool     `json:"detected"`
	Seed       int64    `json:"seed,omitempty"`
	SeedsTried int      `json:"seeds_tried"`
	Components []string `json:"components,omitempty"`
	Downgrades []string `json:"downgrades,omitempty"`
}

func parseConfigs(schemes, apMode string) ([]leakcheck.Config, error) {
	var cfgs []leakcheck.Config
	for _, name := range strings.Split(schemes, ",") {
		// "scheme!mutation" plants one of the gauntlet's deliberate
		// weakenings into the scheme (the config the campaign hunts in
		// TestCampaignFindsAllPlantedMutations); bare names stay intact.
		name, mutName, mutated := strings.Cut(strings.TrimSpace(name), "!")
		ss, aps, err := secure.ParseMatrix([]string{name}, apMode)
		if err != nil {
			return nil, err
		}
		mut := secure.MutNone
		if mutated {
			if mut, err = secure.ParseMutation(mutName); err != nil {
				return nil, err
			}
		}
		for _, c := range leakcheck.Configs(ss, aps) {
			c.Mutation = mut
			cfgs = append(cfgs, c)
		}
	}
	return cfgs, nil
}

func printText(rep report) {
	fmt.Printf("leakcheck %s: %d seeds from %d\n", toolVersion, rep.Seeds, rep.FirstSeed)
	for _, sw := range rep.Sweeps {
		status := "clean"
		if len(sw.Leaks) > 0 {
			status = fmt.Sprintf("%d/%d seeds leak", len(sw.Leaks), sw.Seeds)
		}
		fmt.Printf("  %-14s %s\n", sw.Config, status)
		for i, l := range sw.Leaks {
			if i >= 5 && sw.Verdict == "" {
				fmt.Printf("    ... %d more\n", len(sw.Leaks)-i)
				break
			}
			fmt.Printf("    seed %-6d via %s\n", l.Seed, strings.Join(l.Components, ","))
			if l.Minimized != "" {
				fmt.Printf("      minimized: %s\n", l.Minimized)
			}
			if l.Disassembly != "" {
				fmt.Println(indent(l.Disassembly, "      "))
			}
		}
	}
	printMutations(rep)
	if rep.OK {
		fmt.Println("ok: secure schemes silent within their threat models, unsafe baseline divergent, all mutations caught")
		return
	}
	for _, f := range rep.Failures {
		fmt.Println("FAIL:", f)
	}
}

// printContracts renders the contract matrix as a table: one row per
// config, one column per lattice clause.
func printContracts(rep report) {
	fmt.Printf("leakcheck %s contract matrix: %d seeds from %d\n", toolVersion, rep.Seeds, rep.FirstSeed)
	clauses := make([]string, 0, len(sim.Lattice()))
	for _, c := range sim.Lattice() {
		clauses = append(clauses, c.String())
	}
	fmt.Printf("  %-14s", "config")
	for _, c := range clauses {
		fmt.Printf(" %-9s", c)
	}
	fmt.Println(" strongest")
	for _, cr := range rep.Contracts {
		fmt.Printf("  %-14s", cr.Config)
		byClause := map[string]clauseReport{}
		for _, c := range cr.Cells {
			byClause[c.Clause] = c
		}
		for _, name := range clauses {
			c := byClause[name]
			cell := "ok"
			if c.Leaks > 0 {
				cell = fmt.Sprintf("%d/%d", c.Leaks, cr.Seeds)
			}
			fmt.Printf(" %-9s", cell)
		}
		fmt.Printf(" %s\n", strings.Join(cr.Strongest, ","))
	}
	// Per-cell leaking components, one line per leaked cell.
	for _, cr := range rep.Contracts {
		for _, c := range cr.Cells {
			if c.Leaks > 0 {
				fmt.Printf("  %s/%s: first seed %d via %s\n",
					cr.Config, c.Clause, c.FirstSeed, strings.Join(c.Components, ","))
			}
		}
	}
	printMutations(rep)
	if rep.OK {
		fmt.Println("ok: matrix as expected, every planted mutation downgrades a contract cell")
		return
	}
	for _, f := range rep.Failures {
		fmt.Println("FAIL:", f)
	}
}

func printMutations(rep report) {
	if len(rep.Mutations) == 0 {
		return
	}
	fmt.Println("mutation gauntlet:")
	for _, m := range rep.Mutations {
		switch {
		case m.Detected && len(m.Downgrades) > 0:
			fmt.Printf("  %-16s caught under %-22s at seed %d, downgrades %s\n",
				m.Mutation, m.Config, m.Seed, strings.Join(m.Downgrades, ","))
		case m.Detected:
			fmt.Printf("  %-16s caught under %-22s at seed %d via %s\n",
				m.Mutation, m.Config, m.Seed, strings.Join(m.Components, ","))
		default:
			fmt.Printf("  %-16s NOT CAUGHT under %s (%d seeds)\n", m.Mutation, m.Config, m.SeedsTried)
		}
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
