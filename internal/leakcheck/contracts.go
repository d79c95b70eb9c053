package leakcheck

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

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
	// Components is the union of differing component names over all
	// leaking seeds, in reporting order.
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
// seeds [firstSeed, firstSeed+seeds), running up to workers differential
// pairs concurrently, each worker on one sim.Runner. For each config it reports, per clause, how many
// seeds were distinguishable to that observer — the per-scheme contract
// matrix. A non-nil error aborts the sweep.
func ContractSweep(ctx context.Context, cfgs []Config, firstSeed int64, seeds, workers int) ([]ContractResult, error) {
	if workers < 1 {
		workers = 1
	}
	results := make([]ContractResult, len(cfgs))
	for i, cfg := range cfgs {
		results[i] = ContractResult{Config: cfg, Seeds: seeds}
		for _, c := range sim.Lattice() {
			results[i].Cells = append(results[i].Cells, ClauseCell{Clause: c})
		}
	}

	type job struct {
		cfg  int
		seed int64
	}
	type hit struct {
		cfg        int
		seed       int64
		clause     sim.Clause
		components []string
	}
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		hits     []hit
	)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r sim.Runner
			for j := range jobs {
				p := Generate(j.seed).Normalize()
				oa, err := observationOf(cctx, &r, p, cfgs[j.cfg], p.SecretA)
				var ob sim.Observation
				if err == nil {
					ob, err = observationOf(cctx, &r, p, cfgs[j.cfg], p.SecretB)
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel()
					}
				} else {
					for _, c := range sim.Lattice() {
						if diff := oa.Diff(&ob, c); len(diff) > 0 {
							hits = append(hits, hit{cfg: j.cfg, seed: j.seed, clause: c, components: diff})
						}
					}
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

	sort.Slice(hits, func(a, b int) bool { return hits[a].seed < hits[b].seed })
	for _, h := range hits {
		cc := results[h.cfg].cell(h.clause)
		if cc.Leaks == 0 {
			cc.FirstSeed = h.seed
		}
		cc.Leaks++
		for _, name := range h.components {
			found := false
			for _, have := range cc.Components {
				if have == name {
					found = true
					break
				}
			}
			if !found {
				cc.Components = append(cc.Components, name)
			}
		}
	}
	for i := range results {
		for j := range results[i].Cells {
			sort.Strings(results[i].Cells[j].Components)
		}
	}
	return results, nil
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
		e := MatrixEntry{Config: r.Config.String(), Clauses: map[string]string{}}
		for _, c := range r.Cells {
			v := "satisfied"
			if !c.Satisfied() {
				v = "leaked"
			}
			e.Clauses[c.Clause.String()] = v
		}
		for _, c := range r.Strongest() {
			e.Strongest = append(e.Strongest, c.String())
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
