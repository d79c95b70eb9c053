package sim_test

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// TestClauseLatticeOrdering pins the partial order: both axes cumulative,
// CTSpec top, ArchSeq bottom, ct-seq and pc-spec incomparable.
func TestClauseLatticeOrdering(t *testing.T) {
	all := sim.Lattice()
	if len(all) != 6 {
		t.Fatalf("lattice has %d clauses, want 6", len(all))
	}
	for _, c := range all {
		if !c.Covers(c) {
			t.Errorf("%v does not cover itself", c)
		}
		if !sim.CTSpec.Covers(c) {
			t.Errorf("top clause ct-spec does not cover %v", c)
		}
		if !c.Covers(sim.ArchSeq) {
			t.Errorf("%v does not cover bottom clause arch-seq", c)
		}
	}
	covers := []struct {
		hi, lo sim.Clause
	}{
		{sim.CTSpec, sim.ArchSeq},
		{sim.CTSpec, sim.CTSeq},
		{sim.CTSpec, sim.PCSpec},
		{sim.CTSeq, sim.PCSeq},
		{sim.PCSpec, sim.PCSeq},
		{sim.PCSeq, sim.ArchSeq},
		{sim.ArchSpec, sim.ArchSeq},
	}
	for _, tc := range covers {
		if !tc.hi.Covers(tc.lo) {
			t.Errorf("%v should cover %v", tc.hi, tc.lo)
		}
		if tc.hi != tc.lo && tc.lo.Covers(tc.hi) {
			t.Errorf("%v should not cover %v (antisymmetry)", tc.lo, tc.hi)
		}
	}
	// Incomparable pairs: neither covers the other.
	for _, pair := range [][2]sim.Clause{
		{sim.CTSeq, sim.PCSpec},
		{sim.CTSeq, sim.ArchSpec},
		{sim.PCSeq, sim.ArchSpec},
	} {
		if pair[0].Covers(pair[1]) || pair[1].Covers(pair[0]) {
			t.Errorf("%v and %v should be incomparable", pair[0], pair[1])
		}
	}
}

func TestClauseStringParseRoundTrip(t *testing.T) {
	want := []string{"arch-seq", "arch-spec", "pc-seq", "pc-spec", "ct-seq", "ct-spec"}
	for i, c := range sim.Lattice() {
		if c.String() != want[i] {
			t.Errorf("Lattice()[%d] = %q, want %q", i, c, want[i])
		}
		got, err := sim.ParseClause(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClause(%q) = %v, %v", c, got, err)
		}
	}
	if _, err := sim.ParseClause("ct-transient"); err == nil {
		t.Error("ParseClause accepted an unknown clause")
	}
}

// TestClauseVisibilityMonotone: a covering clause sees a superset of
// components, and the top clause sees all of them.
func TestClauseVisibilityMonotone(t *testing.T) {
	vis := map[sim.Clause]map[string]bool{}
	for _, c := range sim.Lattice() {
		m := map[string]bool{}
		for _, n := range c.VisibleComponents() {
			m[n] = true
		}
		vis[c] = m
	}
	for _, hi := range sim.Lattice() {
		for _, lo := range sim.Lattice() {
			if !hi.Covers(lo) {
				continue
			}
			for n := range vis[lo] {
				if !vis[hi][n] {
					t.Errorf("%v covers %v but does not see its component %s", hi, lo, n)
				}
			}
		}
	}
	if got := len(vis[sim.CTSpec]); got != 14 {
		t.Errorf("top clause sees %d components, want 14", got)
	}
	if got := vis[sim.ArchSeq]; len(got) != 1 || !got["arch-public"] {
		t.Errorf("arch-seq sees %v, want only arch-public", got)
	}
	// The rollback argument: transient execution cannot change committed
	// architectural state, so arch-spec observes exactly what arch-seq does.
	if !reflect.DeepEqual(sim.ArchSpec.VisibleComponents(), sim.ArchSeq.VisibleComponents()) {
		t.Error("arch-spec and arch-seq must see identical components")
	}
}

func observeRun(t *testing.T, opts ...sim.RunOption) sim.Result {
	t.Helper()
	w, _ := workload.ByName("stream")
	p := w.Build(workload.ScaleTest)
	res, err := sim.RunContext(context.Background(), p,
		sim.Config{Scheme: sim.DoM, AddressPrediction: true}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObserveIdempotentCommutative: repeating a clause, reordering the
// clause list, and attaching several Observe options to one run all
// produce identical observations.
func TestObserveIdempotentCommutative(t *testing.T) {
	var a, b, c, d sim.Observation
	observeRun(t,
		sim.Observe(&a, sim.CTSpec, sim.ArchSeq),
		sim.Observe(&b, sim.ArchSeq, sim.CTSpec, sim.CTSpec, sim.ArchSeq),
		sim.Observe(&c),
	)
	observeRun(t, sim.Observe(&d, sim.CTSpec))

	if !reflect.DeepEqual(a.Clauses(), b.Clauses()) {
		t.Errorf("duplicate clauses changed the canonical set: %v vs %v", a.Clauses(), b.Clauses())
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("idempotence: duplicated+reordered clause list changed the observation")
	}
	if a.Micro != c.Micro || a.AddrSpec != c.AddrSpec || a.PubArch != c.PubArch {
		t.Error("empty clause list (full lattice) differs from explicit request")
	}
	// Determinism across runs: a separate run observes identically.
	if d.Micro != a.Micro || d.AddrSeq != a.AddrSeq || d.CtrlSpec != a.CtrlSpec {
		t.Error("identical runs produced different observations")
	}
	if len(a.DiffAll(&d)) != 0 {
		t.Errorf("identical runs diff: %v", a.DiffAll(&d))
	}
}

// TestObserveClauseGating: an arch-only observation answers arch diffs but
// panics on unobserved clauses; requesting a clause observes everything it
// covers.
func TestObserveClauseGating(t *testing.T) {
	var arch, ctseq sim.Observation
	observeRun(t, sim.Observe(&arch, sim.ArchSeq), sim.Observe(&ctseq, sim.CTSeq))

	if !arch.Observed(sim.ArchSeq) || arch.Observed(sim.CTSpec) {
		t.Error("arch-seq observation has wrong Observed set")
	}
	if !ctseq.Observed(sim.PCSeq) || !ctseq.Observed(sim.ArchSeq) {
		t.Error("ct-seq must observe the clauses it covers")
	}
	if ctseq.Observed(sim.PCSpec) || ctseq.Observed(sim.CTSpec) {
		t.Error("ct-seq must not observe spec clauses")
	}
	var arch2 sim.Observation
	observeRun(t, sim.Observe(&arch2, sim.ArchSeq))
	if d := arch.Diff(&arch2, sim.ArchSeq); len(d) != 0 {
		t.Errorf("identical arch runs diff: %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("Diff under an unobserved clause did not panic")
		}
	}()
	arch.Diff(&arch2, sim.CTSpec)
}

// plainDigest drives a core directly, with nothing attached, and returns
// its final checksum and µarch digest: the reference an observed run of the
// same program and configuration must reproduce.
func plainDigest(p *sim.Program, cfg sim.Config) (uint64, sim.MicroDigest, error) {
	c, err := sim.NewCore(p, cfg)
	if err == nil {
		err = c.Run(cfg.MaxInsts, sim.DefaultMaxCycles)
	}
	if err != nil {
		return 0, sim.MicroDigest{}, err
	}
	return c.Checksum(), c.MicroDigest(), nil
}

// TestObserveDoesNotPerturb: attaching Observe changes neither the
// architectural result nor the µarch digest of a run.
func TestObserveDoesNotPerturb(t *testing.T) {
	w, _ := workload.ByName("stream")
	sum, d, err := plainDigest(w.Build(workload.ScaleTest), sim.Config{Scheme: sim.DoM, AddressPrediction: true})
	if err != nil {
		t.Fatal(err)
	}
	var o sim.Observation
	observed := observeRun(t, sim.Observe(&o))
	if sum != observed.Checksum {
		t.Error("Observe changed the architectural checksum")
	}
	if d != o.Micro {
		t.Errorf("Observe changed the µarch digest:\n  plain    %+v\n  observed %+v", d, o.Micro)
	}
}

// TestDigestEquivalenceMatrix: across the full workload × scheme × ±AP
// matrix, the full-lattice Observe composition captures the same µarch
// digest as a directly driven core with nothing attached.
func TestDigestEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix digest equivalence skipped in -short mode")
	}
	names := workload.Names()
	schemes := sim.AllSchemes()
	if cells := len(names) * len(schemes) * 2; cells != 168 {
		t.Logf("matrix is %d cells (suite changed size; still proving all of them)", cells)
	}
	type cell struct {
		wl     string
		scheme sim.Scheme
		ap     bool
	}
	var cells []cell
	for _, name := range names {
		for _, sc := range schemes {
			for _, ap := range []bool{false, true} {
				cells = append(cells, cell{name, sc, ap})
			}
		}
	}
	work := make(chan cell)
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				cfg := sim.Config{Scheme: c.scheme, AddressPrediction: c.ap}
				p := testProgram(t, c.wl)
				_, d, err := plainDigest(p, cfg)
				if err != nil {
					t.Errorf("%s/%v/ap=%v plain: %v", c.wl, c.scheme, c.ap, err)
					continue
				}
				var o sim.Observation
				if _, err := sim.RunContext(context.Background(), p, cfg, sim.Observe(&o, sim.Lattice()...)); err != nil {
					t.Errorf("%s/%v/ap=%v observe: %v", c.wl, c.scheme, c.ap, err)
					continue
				}
				if d != o.Micro {
					t.Errorf("%s/%v/ap=%v: digest != observation:\n  plain   %+v\n  observe %+v",
						c.wl, c.scheme, c.ap, d, o.Micro)
				}
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()
}
