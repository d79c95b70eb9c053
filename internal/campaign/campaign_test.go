package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
)

func TestSchedulerDeterministic(t *testing.T) {
	build := func() []string {
		s := NewScheduler(42)
		s.Add(leakcheck.Generate(1), 5)
		s.Add(leakcheck.Generate(2), 1)
		s.Add(leakcheck.Generate(3), 12)
		var out []string
		for i := 0; i < 20; i++ {
			out = append(out, s.Next().String())
		}
		return out
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed and corpus produced different schedules:\n%v\n%v", a, b)
	}
	s2 := NewScheduler(43)
	s2.Add(leakcheck.Generate(1), 5)
	s2.Add(leakcheck.Generate(2), 1)
	s2.Add(leakcheck.Generate(3), 12)
	var c []string
	for i := 0; i < 20; i++ {
		c = append(c, s2.Next().String())
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different scheduler seeds produced identical schedules")
	}
}

// TestSchedulerForgetRefunds pins the draw-refund invariant: a genome that
// is drawn and then Forgotten (the campaign's dedup filter) must leave the
// scheduler's bookkeeping exactly as it was — parent energies, the energy
// total, and the exploration arm's balanced-field visit counts. Before the
// refund, every filtered duplicate permanently decremented its parent's
// roulette energy and inflated the visit counters, starving exactly the
// high-coverage parents dedup hits most often.
func TestSchedulerForgetRefunds(t *testing.T) {
	s := NewScheduler(7)
	s.Add(leakcheck.Generate(1), 5)
	s.Add(leakcheck.Generate(2), 9)

	snapVisits := func() map[string]map[int]int {
		out := make(map[string]map[int]int)
		for f, m := range s.visits {
			cp := make(map[int]int)
			for v, n := range m {
				if n != 0 {
					cp[v] = n
				}
			}
			if len(cp) > 0 {
				out[f] = cp
			}
		}
		return out
	}
	// Exercise both arms many times; each draw+Forget must be a no-op.
	for i := 0; i < 200; i++ {
		energies := make([]int, len(s.inputs))
		for j := range s.inputs {
			energies[j] = s.inputs[j].energy
		}
		total := s.total
		visits := snapVisits()

		p := s.Next()
		s.Forget(p)

		if s.total != total {
			t.Fatalf("draw %d: total %d after Forget, want %d", i, s.total, total)
		}
		for j := range s.inputs {
			if s.inputs[j].energy != energies[j] {
				t.Fatalf("draw %d: input %d energy %d after Forget, want %d",
					i, j, s.inputs[j].energy, energies[j])
			}
		}
		if got := snapVisits(); !reflect.DeepEqual(got, visits) {
			t.Fatalf("draw %d: visit counts not refunded:\n got %v\nwant %v", i, got, visits)
		}
		if _, ok := s.armOf[p.String()]; ok {
			t.Fatalf("draw %d: arm attribution survived Forget", i)
		}
	}
}

func TestSchedulerDropsCoverageFreeInputs(t *testing.T) {
	s := NewScheduler(1)
	s.Add(leakcheck.Generate(1), 0)
	if s.Len() != 0 {
		t.Errorf("input with no fresh coverage was queued (len=%d)", s.Len())
	}
	s.Add(leakcheck.Generate(1), 3)
	if s.Len() != 1 {
		t.Errorf("coverage-bearing input not queued (len=%d)", s.Len())
	}
}

func TestCoverageMapMonotonic(t *testing.T) {
	m := NewMap()
	if fresh := m.Add([]uint64{1, 2, 3}); fresh != 3 {
		t.Errorf("first add: fresh = %d, want 3", fresh)
	}
	if fresh := m.Add([]uint64{2, 3, 4}); fresh != 1 {
		t.Errorf("overlapping add: fresh = %d, want 1", fresh)
	}
	if fresh := m.Add([]uint64{1, 2, 3, 4}); fresh != 0 {
		t.Errorf("replayed add: fresh = %d, want 0", fresh)
	}
	if m.Count() != 4 {
		t.Errorf("Count = %d, want 4", m.Count())
	}
	// Population never shrinks, whatever is replayed.
	before := m.Count()
	m.Add(nil)
	m.Add([]uint64{1})
	if m.Count() != before {
		t.Errorf("Count moved from %d to %d on replayed cells", before, m.Count())
	}
}

func TestCorpusPersistsAndDedups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.dgcf")
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	in := InputRecord{Params: leakcheck.Generate(7).Normalize(), Cells: []uint64{1, 9, 4}}
	if added, err := c.AddInput(in); err != nil || !added {
		t.Fatalf("first AddInput = %v, %v", added, err)
	}
	if added, _ := c.AddInput(in); added {
		t.Error("duplicate input was not dropped")
	}
	lp := leakcheck.Generate(3).Normalize()
	cfg := leakcheck.Config{Scheme: secure.Unsafe}
	lk := LeakRecord{
		Params: lp, Config: cfg,
		Components: []string{"L1"}, Clauses: []string{"ct-spec"},
		Sig: LeakSig(cfg, lp.Kind, []string{"L1"}, []string{"ct-spec"}),
		Key: LeakKey(lp, cfg),
	}
	if added, err := c.AddLeak(lk); err != nil || !added {
		t.Fatalf("first AddLeak = %v, %v", added, err)
	}
	// A checksum-identical reproducer arriving via a different behavioural
	// signature is still a duplicate.
	lk2 := lk
	lk2.Sig = "other-sig"
	if added, _ := c.AddLeak(lk2); added {
		t.Error("checksum-identical minimized reproducer was not dropped")
	}
	if !c.HasLeakSig(lk.Sig) || !c.HasLeakSig("other-sig") {
		t.Error("leak signatures not registered")
	}
	c.Close()

	// Reopen: everything replays.
	c2, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(c2.Inputs) != 1 || len(c2.Leaks) != 1 {
		t.Fatalf("reopened corpus has %d inputs, %d leaks; want 1, 1", len(c2.Inputs), len(c2.Leaks))
	}
	if !reflect.DeepEqual(c2.Inputs[0], in) {
		t.Errorf("input round-trip mismatch:\n got %+v\nwant %+v", c2.Inputs[0], in)
	}
	if c2.Leaks[0].Key != lk.Key || !c2.HasLeakSig(lk.Sig) {
		t.Error("leak record did not round-trip")
	}
	if added, _ := c2.AddLeak(lk); added {
		t.Error("reopened corpus re-admitted a stored reproducer")
	}
}

func TestCorpusRefusesCorruptionAndWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.dgcf")
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInput(InputRecord{Params: leakcheck.Generate(1).Normalize(), Cells: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Flip one payload byte: loud ErrCorrupt, not silent acceptance.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt corpus: err = %v, want ErrCorrupt", err)
	}

	// Wrong format version: refused with ErrVersion, not ErrCorrupt.
	verbad := append([]byte(nil), data...)
	verbad[4] = 0xEE
	if err := os.WriteFile(path, verbad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(path); !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong-version corpus: err = %v, want ErrVersion", err)
	}

	// Torn tail (crash mid-append): truncated away, earlier records kept.
	torn := append([]byte(nil), data...)
	torn = append(torn, 0x01, 0xff, 0x00)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("torn tail should truncate, got %v", err)
	}
	if len(c3.Inputs) != 1 {
		t.Errorf("torn-tail corpus has %d inputs, want 1", len(c3.Inputs))
	}
	c3.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
		t.Errorf("torn tail not truncated: size %d, want %d", fi.Size(), len(data))
	}
}

// TestCorpusFileGolden pins the exact DGCF bytes written by a fixed run of
// AddInput and AddLeak calls, a duplicate of each included. The file is a
// cross-version contract: if it changes ON PURPOSE, bump CorpusVersion and
// update the digest. A change to Generate or to the records' JSON also
// moves it.
func TestCorpusFileGolden(t *testing.T) {
	const want = "17613d8b836a27b29727d4ee26908e674412f104599f7e3239e643554b7716aa"
	path := filepath.Join(t.TempDir(), "corpus.dgcf")
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, in := range []InputRecord{
		{Params: leakcheck.Generate(7).Normalize(), Cells: []uint64{1, 9, 4}},
		{Params: leakcheck.Generate(8).Normalize(), Cells: []uint64{2}},
		{Params: leakcheck.Generate(7).Normalize(), Cells: []uint64{5}}, // duplicate genome
	} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	lp := leakcheck.Generate(3).Normalize()
	cfg := leakcheck.Config{Scheme: secure.DoM, AP: true}
	lk := LeakRecord{
		Params: lp, Config: cfg, Components: []string{"L1", "traffic"}, Clauses: []string{"ct-spec"},
		Sig: LeakSig(cfg, lp.Kind, []string{"L1", "traffic"}, []string{"ct-spec"}), Key: LeakKey(lp, cfg),
	}
	for range 2 { // the second is a duplicate reproducer
		if _, err := c.AddLeak(lk); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("corpus file:\n  got  %s\n  want %s", got, want)
	}
}

// TestCampaignBeatsBlindCoverage is the guidance acceptance check: at equal
// budget, the coverage-guided campaign must populate strictly more coverage
// cells than the blind sweep (the pre-campaign Generate-stream sampler).
// The config is a secure scheme so neither run pays for minimization,
// isolating the exploration comparison, and the budget is past the point
// where the broad hash-like cell families saturate — the regime where the
// campaign's reach into the never-sampled families is what pays. Every
// component is deterministic under the fixed seed, so the margin is pinned,
// not flaky.
func TestCampaignBeatsBlindCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("192-eval campaign pair in -short mode")
	}
	cfgs := []leakcheck.Config{{Scheme: secure.DoM}}
	run := func(blind bool) int {
		sum, err := Run(context.Background(), Options{
			Configs: cfgs, Budget: 192, Seed: 1, Blind: blind,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum.Cells
	}
	blind := run(true)
	guided := run(false)
	t.Logf("cells at equal budget: guided %d, blind %d", guided, blind)
	if guided <= blind {
		t.Errorf("guided campaign found %d cells, blind sweep %d — guidance is not earning its keep",
			guided, blind)
	}
}

// TestCampaignFindsAllPlantedMutations runs the coverage-guided campaign
// against every planted scheme weakening: each must be exposed, and each
// exposure must come with a minimized reproducer in the corpus.
func TestCampaignFindsAllPlantedMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config campaign in -short mode")
	}
	var cfgs []leakcheck.Config
	for _, m := range secure.Mutations() {
		scheme, needAP := m.Target()
		cfgs = append(cfgs, leakcheck.Config{Scheme: scheme, AP: needAP, Mutation: m})
	}
	sum, err := Run(context.Background(), Options{
		Configs: cfgs, Budget: 40, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]LeakRecord)
	for _, lk := range sum.Leaks {
		found[lk.Config.Mutation.String()] = lk
	}
	for _, m := range secure.Mutations() {
		lk, ok := found[m.String()]
		if !ok {
			t.Errorf("mutation %s not exposed by the campaign", m)
			continue
		}
		// The reproducer must be minimized: re-minimizing it is a fixpoint.
		min, err := leakcheck.Minimize(context.Background(),
			leakcheck.Leak{Params: lk.Params, Config: lk.Config})
		if err != nil {
			t.Fatal(err)
		}
		if min != lk.Params {
			t.Errorf("mutation %s: stored reproducer is not minimal:\nstored %s\nminimal %s",
				m, lk.Params, min)
		}
	}
}

// TestCampaignResume kills a campaign after a small budget and restarts it
// from the corpus: the second run must rebuild its coverage and leak
// knowledge from disk (no re-minimizing known reproducers) and continue
// discovering, not start over.
func TestCampaignResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.dgcf")
	cfgs := []leakcheck.Config{{Scheme: secure.Unsafe}}

	first, err := Run(context.Background(), Options{
		Configs: cfgs, Budget: 16, Seed: 3, CorpusPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.NewLeaks == 0 || first.CorpusInputs == 0 {
		t.Fatalf("first run found nothing (leaks=%d inputs=%d); resume test is vacuous",
			first.NewLeaks, first.CorpusInputs)
	}

	second, err := Run(context.Background(), Options{
		Configs: cfgs, Budget: 8, Seed: 3, CorpusPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.ResumedInputs != first.CorpusInputs {
		t.Errorf("second run resumed %d inputs, want the first run's %d",
			second.ResumedInputs, first.CorpusInputs)
	}
	if len(second.Leaks) < len(first.Leaks) {
		t.Errorf("second run reports %d leaks, first had %d — corpus knowledge was lost",
			len(second.Leaks), len(first.Leaks))
	}
	// Every leak the second run re-encountered must have been deduped
	// against the corpus, not re-stored: reproducer keys are unique.
	seen := make(map[string]bool)
	for _, lk := range second.Leaks {
		if seen[lk.Key] {
			t.Errorf("duplicate reproducer key %s survived resume", lk.Key)
		}
		seen[lk.Key] = true
	}
}

// TestCampaignDeterministic pins that a fixed seed reproduces the entire
// campaign: same cells, same corpus, same leaks.
func TestCampaignDeterministic(t *testing.T) {
	run := func() *Summary {
		sum, err := Run(context.Background(), Options{
			Configs: []leakcheck.Config{{Scheme: secure.Unsafe}},
			Budget:  12, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(), run()
	if a.Cells != b.Cells || a.NewLeaks != b.NewLeaks || a.CorpusInputs != b.CorpusInputs {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Leaks, b.Leaks) {
		t.Error("same seed produced different leak sets")
	}
}

// TestCampaignRefusesWarmConfigs pins that a warm-started config is
// refused before anything runs or is written: engine jobs evaluate genomes
// cold, but Minimize would replay a leak through the checkpoint path, so a
// leak would be found and minimised on two different programs.
func TestCampaignRefusesWarmConfigs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.dgcf")
	sum, err := Run(context.Background(), Options{
		Configs:    []leakcheck.Config{{Scheme: secure.Unsafe}, {Scheme: secure.DoM, WarmupInsts: 1}},
		Budget:     4,
		CorpusPath: path,
	})
	if err == nil || sum != nil {
		t.Fatalf("warm config: sum = %v, err = %v; want a refusal", sum, err)
	}
	if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("refused campaign left a corpus file (stat: %v)", statErr)
	}
}
