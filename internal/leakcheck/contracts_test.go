package leakcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// TestContractMatrixGolden pins the measured per-scheme contract matrix:
// the unsafe baseline leaks exactly under ct-spec (its committed traces and
// architectural results are secret-independent — only transiently performed
// accesses differ), every intact futuristic-model scheme, with and without
// doppelganger loads, satisfies the entire lattice, and the Spectre-model
// stt-spectre leaks ct-spec on store-bypass seeds, outside its threat model
// (TestSpectreModelLeaksOnlyStoreBypass). The golden file is the same one
// CI diffs via `leakcheck -contracts -golden`; regenerate with
// -update-golden after an intentional contract change.
//
// The swept set is the CLI default: every registry scheme ±ap. The cleanup
// rows are exact because the frozen Generate stream is un-primed: intact
// cleanup has a known benign divergence mode on primed gadgets (the LRU
// victim-perturbation residual) that this stream never reaches.
//
// The verdict golden cannot see leak counts, first seeds or components, so
// the full results are also compared with testdata/contract_sweep.json;
// regenerate it with -update-contract-sweep.
func TestContractMatrixGolden(t *testing.T) {
	cfgs := Configs(secure.AllSchemes(), []bool{false, true})
	results, err := ContractSweep(context.Background(), cfgs, 0, testSeeds, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/contract_matrix.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range MatrixOf(results).Diff(want) {
		t.Error(d)
	}
	compareContractSweep(t, results)

	// The matrix must not be vacuous: the unsafe rows have to be
	// distinguishable on every seed, through cache state and the transient
	// address trace.
	for _, r := range results {
		if r.Config.Secure() {
			continue
		}
		cell := r.cell(sim.CTSpec)
		if cell.Leaks != r.Seeds {
			t.Errorf("%s: ct-spec leaked on %d/%d seeds, want all", r.Config, cell.Leaks, r.Seeds)
		}
		found := false
		for _, c := range cell.Components {
			if c == "addr-trace-spec" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: ct-spec leak components %v missing addr-trace-spec", r.Config, cell.Components)
		}
	}
}

// updateContractSweep regenerates testdata/contract_sweep.json:
//
//	go test ./internal/leakcheck -run TestContractMatrixGolden -update-contract-sweep
var updateContractSweep = flag.Bool("update-contract-sweep", false,
	"regenerate testdata/contract_sweep.json instead of comparing against it")

const contractSweepFile = "testdata/contract_sweep.json"

// compareContractSweep compares every field of the sweep results, clauses
// and configs by name, with contractSweepFile.
func compareContractSweep(t *testing.T, results []ContractResult) {
	t.Helper()
	type cell struct {
		Clause     string   `json:"clause"`
		Leaks      int      `json:"leaks"`
		FirstSeed  int64    `json:"first_seed"`
		Components []string `json:"components"`
	}
	type row struct {
		Config string `json:"config"`
		Seeds  int    `json:"seeds"`
		Cells  []cell `json:"cells"`
	}
	var rows []row
	for _, r := range results {
		rw := row{Config: r.Config.String(), Seeds: r.Seeds}
		for _, c := range r.Cells {
			rw.Cells = append(rw.Cells, cell{c.Clause.String(), c.Leaks, c.FirstSeed, c.Components})
		}
		rows = append(rows, rw)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateContractSweep {
		if err := os.WriteFile(contractSweepFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(contractSweepFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-contract-sweep)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("contract sweep differs from %s (regenerate with -update-contract-sweep after an intentional change)", contractSweepFile)
	}
}

// TestMutationDowngradesContractCells asserts every planted weakening
// manifests as a contract downgrade — at least one lattice cell the intact
// scheme satisfies goes to leaked — and that spec-train, which trains the
// address predictor on wrong-path state that survives squash, demotes a
// committed-mode (seq) cell, not just the transient ones.
func TestMutationDowngradesContractCells(t *testing.T) {
	out, err := MutationGauntlet(context.Background(), 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if !o.Detected {
			t.Errorf("mutation %s not detected", o.Mutation)
			continue
		}
		if len(o.Downgrades) == 0 {
			t.Errorf("mutation %s detected but downgrades no contract cell", o.Mutation)
			continue
		}
		for _, c := range o.Downgrades {
			if !sim.CTSpec.Covers(c) && !sim.PCSpec.Covers(c) && !sim.CTSeq.Covers(c) {
				t.Errorf("mutation %s: downgraded clause %s outside the lattice", o.Mutation, c)
			}
		}
		if o.Mutation.String() == "spec-train" {
			seq := false
			for _, c := range o.Downgrades {
				if c.Exec == sim.ExecSeq {
					seq = true
				}
			}
			if !seq {
				t.Errorf("spec-train downgrades %v: expected a committed-mode cell (predictor trained past squash)", o.Downgrades)
			}
		}
	}
}

// TestStrongestIsMaximalAntichain exercises Strongest on a hand-built
// result: with ct-spec leaked and everything else satisfied, the maximal
// satisfied clauses are the incomparable pair {pc-spec, ct-seq}.
func TestStrongestIsMaximalAntichain(t *testing.T) {
	r := ContractResult{Seeds: 1}
	for _, c := range sim.Lattice() {
		cell := ClauseCell{Clause: c}
		if c == sim.CTSpec {
			cell.Leaks = 1
		}
		r.Cells = append(r.Cells, cell)
	}
	got := r.Strongest()
	if len(got) != 2 || got[0] != sim.PCSpec || got[1] != sim.CTSeq {
		t.Fatalf("Strongest = %v, want [pc-spec ct-seq]", got)
	}
	for _, c := range got {
		for _, d := range got {
			if c != d && c.Covers(d) {
				t.Fatalf("Strongest %v is not an antichain: %s covers %s", got, c, d)
			}
		}
	}

	// All satisfied → the single top clause.
	all := ContractResult{Seeds: 1}
	for _, c := range sim.Lattice() {
		all.Cells = append(all.Cells, ClauseCell{Clause: c})
	}
	if got := all.Strongest(); len(got) != 1 || got[0] != sim.CTSpec {
		t.Fatalf("all-satisfied Strongest = %v, want [ct-spec]", got)
	}

	// Even arch-seq leaked → empty.
	none := ContractResult{Seeds: 1}
	for _, c := range sim.Lattice() {
		none.Cells = append(none.Cells, ClauseCell{Clause: c, Leaks: 1})
	}
	if got := none.Strongest(); len(got) != 0 {
		t.Fatalf("all-leaked Strongest = %v, want empty", got)
	}
}

// TestMatrixDiff checks the golden comparator reports downgraded cells,
// strongest-set drift, and rows present on only one side.
func TestMatrixDiff(t *testing.T) {
	base := ContractMatrix{Entries: []MatrixEntry{{
		Config: "stt",
		Clauses: map[string]string{
			"arch-seq": "satisfied", "arch-spec": "satisfied",
			"pc-seq": "satisfied", "pc-spec": "satisfied",
			"ct-seq": "satisfied", "ct-spec": "satisfied",
		},
		Strongest: []string{"ct-spec"},
	}}}
	if d := base.Diff(base); len(d) != 0 {
		t.Fatalf("self-diff not empty: %v", d)
	}

	weakened := ContractMatrix{Entries: []MatrixEntry{{
		Config: "stt",
		Clauses: map[string]string{
			"arch-seq": "satisfied", "arch-spec": "satisfied",
			"pc-seq": "satisfied", "pc-spec": "satisfied",
			"ct-seq": "satisfied", "ct-spec": "leaked",
		},
		Strongest: []string{"pc-spec", "ct-seq"},
	}}}
	d := weakened.Diff(base)
	if len(d) != 2 {
		t.Fatalf("downgrade diff = %v, want cell + strongest mismatch", d)
	}

	extra := ContractMatrix{Entries: append(base.Entries, MatrixEntry{Config: "dom"})}
	if d := extra.Diff(base); len(d) != 1 {
		t.Fatalf("extra-row diff = %v, want one missing-from-golden line", d)
	}
	if d := base.Diff(extra); len(d) != 1 {
		t.Fatalf("missing-row diff = %v, want one not-swept line", d)
	}
}

// TestLeakingClausesConsistent: for an unsafe leak, the clauses reported
// by LeakingClauses must be exactly those whose Diff is non-empty, and
// must be upward closed (if a weaker observer distinguishes the pair, any
// stronger one does too).
func TestLeakingClausesConsistent(t *testing.T) {
	leak, err := Check(context.Background(), Generate(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if leak == nil {
		t.Fatal("seed 0 does not leak under unsafe")
	}
	clauses := leak.LeakingClauses()
	if len(clauses) == 0 {
		t.Fatal("leak reports no leaking clauses")
	}
	for _, lc := range clauses {
		for _, c := range sim.Lattice() {
			if c.Covers(lc) {
				if len(leak.ObsA.Diff(&leak.ObsB, c)) == 0 {
					t.Errorf("clause %s leaks but covering clause %s does not — visibility not monotone", lc, c)
				}
			}
		}
	}
}
