package leakcheck

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"doppelganger/api"
	"doppelganger/sim"
)

// ClauseCell is one contract-matrix cell for one config: how many seeds of
// the sweep were distinguishable under the clause, and through which
// components.
type ClauseCell struct {
	Clause sim.Clause
	// Leaks counts the seeds whose differential pair diverged under this
	// clause; 0 means the config satisfies the clause on the sweep.
	Leaks int
	// FirstSeed is the smallest leaking seed (valid when Leaks > 0).
	FirstSeed int64
	// Components is the sorted union of differing component names over
	// all leaking seeds.
	Components []string
}

// Satisfied reports whether the config satisfied the clause: no seed's
// pair was distinguishable to this observer.
func (c ClauseCell) Satisfied() bool { return c.Leaks == 0 }

// ContractResult is one config's full contract-lattice evaluation over a
// seed range.
type ContractResult struct {
	Config Config
	Seeds  int
	// Cells holds one entry per lattice clause, in canonical order.
	Cells []ClauseCell
}

// cell returns the ClauseCell for the clause.
func (r ContractResult) cell(c sim.Clause) *ClauseCell {
	for i := range r.Cells {
		if r.Cells[i].Clause == c {
			return &r.Cells[i]
		}
	}
	return nil
}

// Satisfies reports whether the config satisfied the clause over the sweep.
func (r ContractResult) Satisfies(c sim.Clause) bool {
	if cc := r.cell(c); cc != nil {
		return cc.Satisfied()
	}
	return false
}

// Strongest returns the maximal satisfied clauses — the strongest
// contracts the scheme upholds on this sweep. Satisfaction is downward
// closed (a stronger observer sees strictly more), so the result is an
// antichain; empty means even arch-seq leaked.
func (r ContractResult) Strongest() []sim.Clause {
	var sat []sim.Clause
	for _, c := range r.Cells {
		if c.Satisfied() {
			sat = append(sat, c.Clause)
		}
	}
	var out []sim.Clause
	for _, c := range sat {
		dominated := false
		for _, d := range sat {
			if d != c && d.Covers(c) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// ContractSweep evaluates the full contract lattice for every config over
// seeds [firstSeed, firstSeed+seeds): for each config it reports, per
// clause, how many seeds were distinguishable to that observer — the
// per-scheme contract matrix. It is ContractOf over Sweep's results. A
// non-nil error aborts the sweep.
func ContractSweep(ctx context.Context, cfgs []Config, firstSeed int64, seeds, workers int) ([]ContractResult, error) {
	sweeps, err := Sweep(ctx, cfgs, firstSeed, seeds, workers)
	if err != nil {
		return nil, err
	}
	results := make([]ContractResult, len(sweeps))
	for i, sw := range sweeps {
		results[i] = ContractOf(sw)
	}
	return results, nil
}

// ContractOf folds one config's sweep into its contract-lattice
// evaluation. The fold is exact: a pair's observations cover ct-spec,
// which sees every component, so a pair distinguishable under any clause
// is already one of the sweep's leaks, and its LeakingClauses are the
// cells it counts in.
func ContractOf(sw SweepResult) ContractResult {
	r := ContractResult{Config: sw.Config, Seeds: sw.Seeds}
	for _, c := range sim.Lattice() {
		r.Cells = append(r.Cells, ClauseCell{Clause: c})
	}
	for _, sl := range sw.Leaks { // sorted by seed
		l := &sl.Leak
		for _, c := range l.LeakingClauses() {
			cc := r.cell(c)
			if cc.Leaks == 0 {
				cc.FirstSeed = sl.Seed
			}
			cc.Leaks++
			cc.Components = append(cc.Components, l.ObsA.Diff(&l.ObsB, c)...)
		}
	}
	for j := range r.Cells {
		slices.Sort(r.Cells[j].Components)
		r.Cells[j].Components = slices.Compact(r.Cells[j].Components)
	}
	return r
}

// Row renders the result as one contract-matrix row: per clause its
// verdict ("satisfied" or "leaked"), leak count, first leaking seed and
// components, plus the strongest satisfied clauses. It is the one
// rendering of a contract result: doppeld's /v1/leakcheck, the leakcheck
// CLI and MatrixOf all build theirs from it.
func (r ContractResult) Row() api.ContractRow {
	row := api.ContractRow{Config: r.Config.String()}
	for _, c := range r.Cells {
		cell := api.ContractCell{Clause: c.Clause.String(), Verdict: "satisfied", Leaks: c.Leaks, Components: c.Components}
		if !c.Satisfied() {
			cell.Verdict = "leaked"
			cell.FirstSeed = c.FirstSeed
		}
		row.Cells = append(row.Cells, cell)
	}
	for _, c := range r.Strongest() {
		row.Strongest = append(row.Strongest, c.String())
	}
	return row
}

// Verdict classifies the result against the expectations that hold
// whatever the golden says: a secure config upholds at least the weakest
// contract, and the unsafe baseline is distinguishable somewhere or the
// oracle is vacuous. It returns a non-empty failure description, or "" if
// as expected.
func (r ContractResult) Verdict() string {
	switch {
	case r.Config.Secure() && !r.Satisfies(sim.ArchSeq):
		return fmt.Sprintf("SECURITY: %s leaks under arch-seq (architectural leak)", r.Config)
	case !r.Config.Secure() && r.Satisfies(sim.CTSpec):
		return fmt.Sprintf("VACUOUS: %s satisfies ct-spec on %d seeds — the oracle saw nothing", r.Config, r.Seeds)
	default:
		return ""
	}
}

// MatrixEntry is one config row of the serialized contract matrix:
// per-clause verdicts plus the strongest satisfied contracts.
type MatrixEntry struct {
	Config string `json:"config"`
	// Clauses maps clause notation ("ct-spec") to "satisfied" or "leaked".
	Clauses map[string]string `json:"clauses"`
	// Strongest lists the maximal satisfied clauses in lattice order.
	Strongest []string `json:"strongest"`
}

// ContractMatrix is the serialized (and golden-comparable) form of a
// contract sweep: one row per config, verdicts only. Leak counts and
// components are deliberately excluded — they vary with seed count, while
// the verdict per cell is the stable contract property CI pins.
type ContractMatrix struct {
	Entries []MatrixEntry `json:"matrix"`
}

// MatrixOf reduces sweep results to their verdict matrix.
func MatrixOf(results []ContractResult) ContractMatrix {
	var m ContractMatrix
	for _, r := range results {
		row := r.Row()
		e := MatrixEntry{Config: row.Config, Clauses: map[string]string{}, Strongest: row.Strongest}
		for _, c := range row.Cells {
			e.Clauses[c.Clause] = c.Verdict
		}
		m.Entries = append(m.Entries, e)
	}
	return m
}

// Diff compares two matrices and describes every disagreeing cell, in
// matrix order; empty means identical verdicts. Rows present on only one
// side are reported whole.
func (m ContractMatrix) Diff(o ContractMatrix) []string {
	var out []string
	rows := map[string]MatrixEntry{}
	for _, e := range o.Entries {
		rows[e.Config] = e
	}
	seen := map[string]bool{}
	for _, e := range m.Entries {
		seen[e.Config] = true
		oe, ok := rows[e.Config]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from golden", e.Config))
			continue
		}
		for _, c := range sim.Lattice() {
			if got, want := e.Clauses[c.String()], oe.Clauses[c.String()]; got != want {
				out = append(out, fmt.Sprintf("%s/%s: %s, golden says %s", e.Config, c, got, want))
			}
		}
		if got, want := strings.Join(e.Strongest, ","), strings.Join(oe.Strongest, ","); got != want {
			out = append(out, fmt.Sprintf("%s/strongest: [%s], golden says [%s]", e.Config, got, want))
		}
	}
	for _, e := range o.Entries {
		if !seen[e.Config] {
			out = append(out, fmt.Sprintf("%s: in golden but not swept", e.Config))
		}
	}
	return out
}

// MarshalIndent renders the matrix as stable, diff-friendly JSON.
func (m ContractMatrix) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// ParseMatrix parses a serialized contract matrix.
func ParseMatrix(data []byte) (ContractMatrix, error) {
	var m ContractMatrix
	if err := json.Unmarshal(data, &m); err != nil {
		return ContractMatrix{}, fmt.Errorf("leakcheck: parsing contract matrix: %w", err)
	}
	return m, nil
}
