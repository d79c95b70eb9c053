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
	"io"
	"os"
	"runtime"
	"strings"

	"doppelganger/api"
	"doppelganger/internal/campaign"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// Envelope schema: version 2 added scheme/ap/tool metadata and the
// contract-matrix sections. Version 3 is the contract report whose rows
// are the wire's api.ContractRow (cells gain "verdict", rows drop the
// "seeds" the report already carries); version 4 drops its "matrix",
// which repeated every row's verdicts. The classic report's layout is
// unchanged, so it stays at 2. Consumers select on schema_version.
const (
	schemaVersion         = 2
	contractSchemaVersion = 4
	toolVersion           = "0.9.0"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command on the given arguments and streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds        = fs.Int("seeds", 256, "number of gadget seeds to sweep per config")
		firstSeed    = fs.Int64("first", 0, "first seed of the sweep")
		oneSeed      = fs.Int64("seed", -1, "check a single seed (prints its disassembly); overrides -seeds/-first")
		schemes      = fs.String("schemes", strings.Join(secure.Names(secure.AllSchemes()), ","), "comma-separated schemes to sweep; scheme!mutation plants a gauntlet weakening")
		apMode       = fs.String("ap", "both", "doppelganger loads: on, off or both")
		mutations    = fs.Bool("mutations", true, "also run the mutation gauntlet (planted scheme weakenings must be caught)")
		mutSeeds     = fs.Int("mutation-seeds", 64, "max seeds to hunt per planted mutation")
		minimize     = fs.Bool("minimize", false, "minimize each leaking reproducer")
		warmup       = fs.Uint64("warmup", 0, "route each run through snapshot/restore after N warmed instructions (0 = straight-line; refused with -campaign)")
		contracts    = fs.Bool("contracts", false, "evaluate the full contract lattice and emit the per-scheme contract matrix")
		campaignRun  = fs.Bool("campaign", false, "run a coverage-guided campaign instead of a fixed-seed sweep")
		budget       = fs.Int("budget", 256, "campaign mode: genome evaluations to spend")
		corpusPath   = fs.String("corpus", "", "campaign mode: persistent corpus file (resumed when present)")
		blind        = fs.Bool("blind", false, "campaign mode: disable coverage guidance (baseline sweep generator)")
		golden       = fs.String("golden", "", "contract mode: compare the measured matrix against this golden JSON file")
		updateGolden = fs.Bool("update-golden", false, "contract mode: write the measured matrix to the -golden path instead of comparing")
		jsonOut      = fs.Bool("json", false, "emit the report as JSON")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent gadget checks")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfgs, err := parseConfigs(*schemes, *apMode)
	if err != nil {
		return fatal(stderr, err)
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
		return runCampaign(ctx, stdout, stderr, cfgs, *budget, first, *corpusPath, *blind, *jsonOut)
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

	// One sweep and one gauntlet; the mode picks which rows and verdicts
	// the report carries.
	sweeps, err := leakcheck.Sweep(ctx, cfgs, first, n, *workers)
	if err != nil {
		return fatal(stderr, err)
	}
	var outcomes []leakcheck.MutationOutcome
	if *mutations {
		if outcomes, err = leakcheck.MutationGauntlet(ctx, first, *mutSeeds); err != nil {
			return fatal(stderr, err)
		}
	}
	var results []leakcheck.ContractResult
	if *contracts {
		rep.Schema = contractSchemaVersion
		results = make([]leakcheck.ContractResult, len(sweeps))
		for i, sw := range sweeps {
			results[i] = leakcheck.ContractOf(sw)
			rep.Contracts = append(rep.Contracts, results[i].Row())
			rep.fail(results[i].Verdict())
		}
	} else if err := addSweeps(ctx, &rep, sweeps, *minimize, *oneSeed >= 0); err != nil {
		return fatal(stderr, err)
	}
	for _, o := range outcomes {
		rep.Mutations = append(rep.Mutations, mutationOutcomeReport(o))
		rep.fail(o.Verdict())
	}
	if *contracts && *golden != "" {
		if err := checkGolden(stderr, &rep, leakcheck.MatrixOf(results), *golden, *updateGolden); err != nil {
			return fatal(stderr, err)
		}
	}
	rep.OK = len(rep.Failures) == 0

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fatal(stderr, err)
		}
	} else if *contracts {
		printContracts(stdout, rep)
	} else {
		printText(stdout, rep)
	}
	if !rep.OK {
		return 1
	}
	return 0
}

// runCampaign is the coverage-guided mode: spend the budget on
// scheduler-chosen gadget genomes, persist (and resume) the corpus when a
// path is given, and emit the summary as an api.CampaignResponse. It
// returns the exit status.
func runCampaign(ctx context.Context, stdout, stderr io.Writer, cfgs []leakcheck.Config,
	budget int, seed int64, corpusPath string, blind, jsonOut bool) int {
	opts := campaign.Options{
		Configs:    cfgs,
		Budget:     budget,
		Seed:       seed,
		CorpusPath: corpusPath,
		Blind:      blind,
	}
	if !jsonOut {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	sum, err := campaign.Run(ctx, opts)
	if err != nil {
		return fatal(stderr, err)
	}

	failures := sum.Failures()
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum.Response("campaign-local", budget, seed)); err != nil {
			return fatal(stderr, err)
		}
	} else {
		fmt.Fprintf(stdout, "leakcheck %s campaign: %d evals (%d pairs), %d coverage cells\n",
			toolVersion, sum.Evals, sum.Pairs, sum.Cells)
		fmt.Fprintf(stdout, "  corpus: %d inputs (%d resumed), %d new + %d duplicate leaks\n",
			sum.CorpusInputs, sum.ResumedInputs, sum.NewLeaks, sum.DupLeaks)
		for _, lk := range sum.Leaks {
			fmt.Fprintf(stdout, "  %-22s %s via %s\n", lk.Config, lk.Params, strings.Join(lk.Components, ","))
		}
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		if len(failures) == 0 {
			fmt.Fprintln(stdout, "ok: no unmutated secure config leaks within its threat model")
		}
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// addSweeps records the classic two-run oracle's per-config leaks and
// verdicts, minimising each reproducer or attaching its disassembly when
// asked.
func addSweeps(ctx context.Context, rep *report, sweeps []leakcheck.SweepResult, minimize, disasm bool) error {
	for _, sw := range sweeps {
		rs := sweepReport{Config: sw.Config.String(), Seeds: sw.Seeds, Verdict: sw.Verdict()}
		rep.fail(rs.Verdict)
		for _, sl := range sw.Leaks {
			lr := leakReport{Seed: sl.Seed, Components: sl.Leak.Components, Params: sl.Leak.Params.String()}
			if minimize {
				min, err := leakcheck.Minimize(ctx, sl.Leak)
				if err != nil {
					return err
				}
				lr.Minimized = min.String()
			}
			if disasm {
				lr.Disassembly = sl.Leak.Params.Disassemble()
			}
			rs.Leaks = append(rs.Leaks, lr)
		}
		rep.Sweeps = append(rep.Sweeps, rs)
	}
	return nil
}

// checkGolden diffs the measured contract matrix against the golden file,
// recording each difference as a failure of the report, or writes the
// matrix there when updating.
func checkGolden(stderr io.Writer, rep *report, matrix leakcheck.ContractMatrix, golden string, update bool) error {
	if update {
		data, err := matrix.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "leakcheck: wrote golden matrix to %s\n", golden)
		return nil
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	want, err := leakcheck.ParseMatrix(data)
	if err != nil {
		return err
	}
	for _, d := range matrix.Diff(want) {
		rep.fail("GOLDEN: " + d)
	}
	return nil
}

// mutationOutcomeReport converts a gauntlet outcome.
func mutationOutcomeReport(o leakcheck.MutationOutcome) mutationReport {
	mr := mutationReport{Mutation: o.Mutation.String(), Config: o.Config.String(),
		Detected: o.Detected, SeedsTried: o.SeedsTried}
	if o.Detected {
		mr.Seed = o.Seed
		mr.Components = o.Leak.Components
		for _, c := range o.Downgrades {
			mr.Downgrades = append(mr.Downgrades, c.String())
		}
	}
	return mr
}

// fatal reports a usage or infrastructure error and returns its exit
// status.
func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "leakcheck:", err)
	return 2
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

	Sweeps    []sweepReport     `json:"sweeps,omitempty"`
	Contracts []api.ContractRow `json:"contracts,omitempty"`
	Mutations []mutationReport  `json:"mutations,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	OK        bool              `json:"ok"`
}

// fail records a non-empty verdict as a failure.
func (r *report) fail(verdict string) {
	if verdict != "" {
		r.Failures = append(r.Failures, verdict)
	}
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

func printText(w io.Writer, rep report) {
	fmt.Fprintf(w, "leakcheck %s: %d seeds from %d\n", toolVersion, rep.Seeds, rep.FirstSeed)
	for _, sw := range rep.Sweeps {
		status := "clean"
		if len(sw.Leaks) > 0 {
			status = fmt.Sprintf("%d/%d seeds leak", len(sw.Leaks), sw.Seeds)
		}
		fmt.Fprintf(w, "  %-14s %s\n", sw.Config, status)
		for i, l := range sw.Leaks {
			if i >= 5 && sw.Verdict == "" {
				fmt.Fprintf(w, "    ... %d more\n", len(sw.Leaks)-i)
				break
			}
			fmt.Fprintf(w, "    seed %-6d via %s\n", l.Seed, strings.Join(l.Components, ","))
			if l.Minimized != "" {
				fmt.Fprintf(w, "      minimized: %s\n", l.Minimized)
			}
			if l.Disassembly != "" {
				fmt.Fprintln(w, indent(l.Disassembly, "      "))
			}
		}
	}
	printMutations(w, rep)
	if rep.OK {
		fmt.Fprintln(w, "ok: secure schemes silent within their threat models, unsafe baseline divergent, all mutations caught")
		return
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
}

// printContracts renders the contract matrix as a table: one row per
// config, one column per lattice clause.
func printContracts(w io.Writer, rep report) {
	fmt.Fprintf(w, "leakcheck %s contract matrix: %d seeds from %d\n", toolVersion, rep.Seeds, rep.FirstSeed)
	fmt.Fprintf(w, "  %-14s", "config")
	for _, c := range sim.Lattice() {
		fmt.Fprintf(w, " %-9s", c)
	}
	fmt.Fprintln(w, " strongest")
	for _, cr := range rep.Contracts {
		fmt.Fprintf(w, "  %-14s", cr.Config)
		for _, c := range cr.Cells {
			cell := "ok"
			if c.Leaks > 0 {
				cell = fmt.Sprintf("%d/%d", c.Leaks, rep.Seeds)
			}
			fmt.Fprintf(w, " %-9s", cell)
		}
		fmt.Fprintf(w, " %s\n", strings.Join(cr.Strongest, ","))
	}
	// Per-cell leaking components, one line per leaked cell.
	for _, cr := range rep.Contracts {
		for _, c := range cr.Cells {
			if c.Leaks > 0 {
				fmt.Fprintf(w, "  %s/%s: first seed %d via %s\n",
					cr.Config, c.Clause, c.FirstSeed, strings.Join(c.Components, ","))
			}
		}
	}
	printMutations(w, rep)
	if rep.OK {
		fmt.Fprintln(w, "ok: matrix as expected, every planted mutation downgrades a contract cell")
		return
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
}

func printMutations(w io.Writer, rep report) {
	if len(rep.Mutations) == 0 {
		return
	}
	fmt.Fprintln(w, "mutation gauntlet:")
	for _, m := range rep.Mutations {
		switch {
		case m.Detected && len(m.Downgrades) > 0:
			fmt.Fprintf(w, "  %-16s caught under %-22s at seed %d, downgrades %s\n",
				m.Mutation, m.Config, m.Seed, strings.Join(m.Downgrades, ","))
		case m.Detected:
			fmt.Fprintf(w, "  %-16s caught under %-22s at seed %d via %s\n",
				m.Mutation, m.Config, m.Seed, strings.Join(m.Components, ","))
		default:
			fmt.Fprintf(w, "  %-16s NOT CAUGHT under %s (%d seeds)\n", m.Mutation, m.Config, m.SeedsTried)
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
