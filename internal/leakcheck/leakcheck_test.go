package leakcheck

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"doppelganger/internal/secure"
)

// testSeeds is the per-test seed budget: large enough that both gadget
// kinds and all parameter corners appear, small enough for the tier-1 run.
const testSeeds = 32

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a != b {
			t.Fatalf("Generate(%d) not deterministic: %v vs %v", seed, a, b)
		}
		if a != a.Normalize() {
			t.Errorf("Generate(%d) = %v not normalized", seed, a)
		}
	}
	if Generate(1) == Generate(2) {
		t.Error("distinct seeds produced identical params")
	}
}

// TestDifferentialPairIdentical checks the construction invariant the whole
// oracle rests on: the two programs of a pair are identical except for the
// one initial-memory word holding the secret.
func TestDifferentialPairIdentical(t *testing.T) {
	for seed := int64(0); seed < testSeeds; seed++ {
		p := Generate(seed)
		pa, pb := p.Build(p.SecretA), p.Build(p.SecretB)
		if len(pa.Code) != len(pb.Code) {
			t.Fatalf("seed %d: code lengths differ: %d vs %d", seed, len(pa.Code), len(pb.Code))
		}
		for i := range pa.Code {
			if pa.Code[i] != pb.Code[i] {
				t.Fatalf("seed %d: code differs at pc=%d: %v vs %v", seed, i, pa.Code[i], pb.Code[i])
			}
		}
		if pa.InitRegs != pb.InitRegs {
			t.Fatalf("seed %d: initial registers differ", seed)
		}
		var diff []uint64
		for addr, v := range pa.InitMem {
			if w, ok := pb.InitMem[addr]; !ok || w != v {
				diff = append(diff, addr)
			}
		}
		for addr := range pb.InitMem {
			if _, ok := pa.InitMem[addr]; !ok {
				diff = append(diff, addr)
			}
		}
		if len(diff) != 1 {
			t.Fatalf("seed %d: initial memory differs at %d addresses %v, want exactly 1 (the secret)",
				seed, len(diff), diff)
		}
	}
}

func TestNormalizeProducesValidParams(t *testing.T) {
	cases := []Params{
		{},
		{Kind: Kind(200), Rounds: -5, ShadowDepth: 99, ChainLen: -1, TrainLoops: 77},
		{SecretA: 3, SecretB: 3},
		{SecretA: 255, SecretB: 255},
		{Rounds: 1000, SecretA: minSecret, SecretB: minSecret},
	}
	for _, c := range cases {
		p := c.Normalize()
		if p.Kind >= numKinds {
			t.Errorf("Normalize(%+v): bad kind %d", c, p.Kind)
		}
		if p.Rounds < minRounds || p.Rounds > maxRounds {
			t.Errorf("Normalize(%+v): rounds %d out of range", c, p.Rounds)
		}
		if p.ShadowDepth < 0 || p.ShadowDepth > maxShadowDepth ||
			p.ChainLen < 0 || p.ChainLen > maxChainLen ||
			p.TrainLoops < 0 || p.TrainLoops > maxTrainLoops {
			t.Errorf("Normalize(%+v): out-of-range features %+v", c, p)
		}
		if p.SecretA < minSecret || p.SecretB < minSecret || p.SecretA == p.SecretB {
			t.Errorf("Normalize(%+v): bad secrets %02x/%02x", c, p.SecretA, p.SecretB)
		}
		if p != p.Normalize() {
			t.Errorf("Normalize(%+v) not idempotent", c)
		}
	}
}

// TestUnsafeBaselineLeaks keeps the oracle non-vacuous: every generated
// gadget must visibly diverge on the unprotected baseline.
func TestUnsafeBaselineLeaks(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < testSeeds; seed++ {
		p := Generate(seed)
		leak, err := Check(ctx, p, Config{Scheme: secure.Unsafe})
		if err != nil {
			t.Fatal(err)
		}
		if leak == nil {
			t.Errorf("seed %d (%s): no divergence on the unsafe baseline — vacuous gadget", seed, p)
		}
	}
}

// TestSecureSchemesDoNotLeak is the core security assertion: under every
// intact secure scheme, with and without doppelganger loads, the
// differential pairs must be micro-architecturally indistinguishable.
func TestSecureSchemesDoNotLeak(t *testing.T) {
	res, err := Sweep(context.Background(), DefaultConfigs(), 0, testSeeds, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if v := r.Verdict(); v != "" {
			t.Error(v)
			for _, sl := range r.Leaks {
				t.Logf("reproduce: seed %d under %s\n%s", sl.Seed, r.Config, sl.Leak.Params.Disassemble())
				break
			}
		}
	}
}

// TestMutationGauntlet proves the checker catches planted protection bugs:
// each weakening of a scheme's delay/taint logic must be flagged.
func TestMutationGauntlet(t *testing.T) {
	out, err := MutationGauntlet(context.Background(), 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(secure.Mutations()) {
		t.Fatalf("got %d outcomes, want %d", len(out), len(secure.Mutations()))
	}
	for _, o := range out {
		if !o.Detected {
			t.Errorf("planted mutation %s under %s not detected in %d seeds — the oracle is blind to it",
				o.Mutation, o.Config, o.SeedsTried)
			continue
		}
		if o.Leak == nil || len(o.Leak.Components) == 0 {
			t.Errorf("mutation %s detected but leak report empty", o.Mutation)
		}
		// Detection must be reproducible from the reported seed alone.
		again, err := Check(context.Background(), GauntletParams(o.Seed, o.Mutation), o.Config)
		if err != nil {
			t.Fatal(err)
		}
		if again == nil {
			t.Errorf("mutation %s: seed %d did not reproduce", o.Mutation, o.Seed)
		}
	}
}

// TestPrimedCleanupIntactResidual is the flip side of the gauntlet's
// prime bias: the primed gadgets that expose the planted rollback
// weakenings must stay essentially silent when Cleanup's undo journal is
// intact. With every L1 set full, each wrong-path fill evicts a valid
// victim, so this exercises eviction reinstatement (not just fill
// invalidation) on every seed, with and without address prediction.
//
// "Essentially" because undo-based schemes under LRU have a known,
// literature-documented residual that rollback cannot close: when a
// *committed* fill performs while a speculative line still occupies its
// set, the committed fill's LRU victim choice is perturbed by the
// transient resident. The speculative line itself is rolled back exactly,
// but the committed fill legitimately stays — in a different way than it
// would have landed without the speculation — so the two differential
// runs can end with genuinely different cache *content*. This is
// precisely why CleanupSpec pairs undo with L1 random replacement (the
// CacheConfig.RandomReplacement mode). The test therefore pins the
// residual's shape instead of claiming universal cleanliness: any leak
// on a primed intact-cleanup run must be confined to cache-content
// fingerprints (L1/L2/L3), with no stats, trace, MSHR, or predictor
// divergence — and the residual must stay rare across the seed range.
func TestPrimedCleanupIntactResidual(t *testing.T) {
	ctx := context.Background()
	leaky := 0
	for seed := int64(0); seed < testSeeds; seed++ {
		p := Generate(seed)
		p.Prime = true
		seedLeaked := false
		for _, ap := range []bool{false, true} {
			leak, err := Check(ctx, p, Config{Scheme: secure.Cleanup, AP: ap})
			if err != nil {
				t.Fatal(err)
			}
			if leak == nil {
				continue
			}
			seedLeaked = true
			for _, c := range leak.Components {
				switch c {
				case "L1", "L2", "L3":
				default:
					t.Errorf("seed %d ap=%v: intact cleanup leaks beyond cache content via %q (all: %v) — rollback broken, not the LRU residual (%s)",
						seed, ap, c, leak.Components, leak.Params)
				}
			}
		}
		if seedLeaked {
			leaky++
		}
	}
	// The residual is a corner case (committed fill racing a still-resident
	// speculative line in a full set), not the common case. If most primed
	// seeds diverge, the rollback itself has regressed.
	if leaky > testSeeds/4 {
		t.Errorf("victim-perturbation residual on %d/%d primed seeds — too common to be the LRU residual", leaky, testSeeds)
	}
}

// TestPrimedUnsafeStillLeaks keeps the primed gadget family non-vacuous:
// priming must not mask the transmission on the unprotected baseline.
func TestPrimedUnsafeStillLeaks(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 8; seed++ {
		p := Generate(seed)
		p.Prime = true
		leak, err := Check(ctx, p, Config{Scheme: secure.Unsafe})
		if err != nil {
			t.Fatal(err)
		}
		if leak == nil {
			t.Errorf("seed %d: primed gadget silent on the unsafe baseline", seed)
		}
	}
}

// TestGauntletParamsBias pins the gauntlet's gadget stream: undo-scheme
// mutations hunt with primed gadgets (their weakenings are invisible
// without evictions), every other mutation hunts with the frozen Generate
// stream unchanged.
func TestGauntletParamsBias(t *testing.T) {
	for _, m := range secure.Mutations() {
		p := GauntletParams(3, m)
		scheme, _ := m.Target()
		if scheme.UndoesSpeculation() {
			if !p.Prime {
				t.Errorf("%s: gauntlet params not primed for undo scheme", m)
			}
			q := p
			q.Prime = false
			if q != Generate(3) {
				t.Errorf("%s: gauntlet params diverge from Generate beyond the prime bias", m)
			}
		} else if p != Generate(3) {
			t.Errorf("%s: gauntlet params diverge from the frozen Generate stream", m)
		}
	}
}

// TestSpecTrainMutationPoisonsPredictor pins the doppelganger security
// anchor: training the address predictor speculatively must surface as a
// predictor-table divergence specifically.
func TestSpecTrainMutationPoisonsPredictor(t *testing.T) {
	cfg := Config{Scheme: secure.DoM, AP: true, Mutation: secure.MutSpecTrain}
	for seed := int64(0); seed < 16; seed++ {
		leak, err := Check(context.Background(), Generate(seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if leak == nil {
			continue
		}
		for _, c := range leak.Components {
			if c == "stride-predictor" || c == "context-predictor" {
				return
			}
		}
		t.Fatalf("seed %d: spec-train leak via %v, expected a predictor component", seed, leak.Components)
	}
	t.Fatal("spec-train mutation never detected in 16 seeds")
}

func TestMinimizeShrinksReproducer(t *testing.T) {
	ctx := context.Background()
	// A deliberately fat reproducer.
	p := Params{Seed: 7, Kind: KindBoundsCheck, Rounds: maxRounds, ShadowDepth: maxShadowDepth,
		ChainLen: maxChainLen, TrainLoops: maxTrainLoops, DoubleTransmit: true,
		SecretA: 0xcf, SecretB: 0x31}.Normalize()
	cfg := Config{Scheme: secure.Unsafe}
	leak, err := Check(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if leak == nil {
		t.Fatal("fat reproducer does not leak under unsafe")
	}
	min, err := Minimize(ctx, *leak)
	if err != nil {
		t.Fatal(err)
	}
	if min.Rounds > p.Rounds || min.ShadowDepth > p.ShadowDepth || min.ChainLen > p.ChainLen ||
		min.TrainLoops > p.TrainLoops || (min.DoubleTransmit && !p.DoubleTransmit) {
		t.Fatalf("minimized params grew: %v from %v", min, p)
	}
	if min.ShadowDepth != 0 || min.ChainLen != 0 || min.TrainLoops != 0 || min.DoubleTransmit {
		t.Errorf("expected all optional features dropped, got %v", min)
	}
	again, err := Check(ctx, min, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil {
		t.Fatalf("minimized reproducer %v no longer leaks", min)
	}
}

func TestSweepVerdictStrings(t *testing.T) {
	secureCfg := Config{Scheme: secure.DoM}
	unsafeCfg := Config{Scheme: secure.Unsafe}
	leak := SeedLeak{Seed: 3, Leak: Leak{Params: Generate(3), Config: secureCfg, Components: []string{"L1"}}}

	if v := (SweepResult{Config: secureCfg, Seeds: 8, Leaks: []SeedLeak{leak}}).Verdict(); !strings.Contains(v, "SECURITY") {
		t.Errorf("secure-leak verdict = %q, want SECURITY", v)
	}
	if v := (SweepResult{Config: unsafeCfg, Seeds: 8}).Verdict(); !strings.Contains(v, "VACUOUS") {
		t.Errorf("silent-unsafe verdict = %q, want VACUOUS", v)
	}
	if v := (SweepResult{Config: secureCfg, Seeds: 8}).Verdict(); v != "" {
		t.Errorf("clean secure verdict = %q, want empty", v)
	}
	if v := (SweepResult{Config: unsafeCfg, Seeds: 8, Leaks: []SeedLeak{leak}}).Verdict(); v != "" {
		t.Errorf("leaking unsafe verdict = %q, want empty", v)
	}
}

// TestSpectreModelLeaksOnlyStoreBypass pins the threat-model split the
// contracts paper predicts for stt-spectre: it taints only
// control-speculative loads, so store-bypass gadgets leak under it while
// every control-speculation gadget stays silent, and the sweep verdict
// reads the store-bypass leaks as expected, not as failures.
func TestSpectreModelLeaksOnlyStoreBypass(t *testing.T) {
	cfgs := []Config{{Scheme: secure.STTSpectre}, {Scheme: secure.STTSpectre, AP: true}}
	res, err := Sweep(context.Background(), cfgs, 0, testSeeds, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if len(r.Leaks) == 0 {
			t.Errorf("%s: no store-bypass leak on %d seeds — the threat-model downgrade did not show", r.Config, r.Seeds)
		}
		for _, sl := range r.Leaks {
			if k := sl.Leak.Params.Kind; k != KindStoreBypass {
				t.Errorf("%s: seed %d (%s) leaks via %v", r.Config, sl.Seed, k, sl.Leak.Components)
			}
		}
		if v := r.Verdict(); v != "" {
			t.Errorf("%s: verdict %q, want store-bypass leaks accepted", r.Config, v)
		}
	}

	// A control-speculation leak under the same scheme is a failure.
	bounds := Generate(0)
	if bounds.Kind != KindBoundsCheck {
		t.Fatalf("seed 0 is %s, want a bounds-check gadget", bounds.Kind)
	}
	leak := SeedLeak{Leak: Leak{Params: bounds, Config: cfgs[0], Components: []string{"L1"}}}
	if v := (SweepResult{Config: cfgs[0], Seeds: 1, Leaks: []SeedLeak{leak}}).Verdict(); !strings.Contains(v, "SECURITY") {
		t.Errorf("bounds-check leak under stt-spectre: verdict %q, want SECURITY", v)
	}
}

func TestDisassembleStable(t *testing.T) {
	p := Generate(11)
	d1, d2 := p.Disassemble(), p.Disassemble()
	if d1 != d2 {
		t.Fatal("disassembly not deterministic")
	}
	if !strings.Contains(d1, "leakcheck") && !strings.Contains(d1, "seed=11") {
		t.Errorf("disassembly missing header: %q", d1[:80])
	}
	if !strings.Contains(d1, "load") && !strings.Contains(d1, "Load") && !strings.Contains(d1, "ld") {
		t.Errorf("disassembly has no load instructions:\n%s", d1)
	}
}

func TestConfigString(t *testing.T) {
	cases := map[string]Config{
		"unsafe":            {Scheme: secure.Unsafe},
		"dom+ap":            {Scheme: secure.DoM, AP: true},
		"stt!stt-no-taint":  {Scheme: secure.STT, Mutation: secure.MutSTTNoTaint},
		"dom+ap!spec-train": {Scheme: secure.DoM, AP: true, Mutation: secure.MutSpecTrain},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("Config.String() = %q, want %q", got, want)
		}
	}
	if !(Config{Scheme: secure.DoM}).Secure() {
		t.Error("intact DoM should be Secure")
	}
	if (Config{Scheme: secure.Unsafe}).Secure() {
		t.Error("unsafe should not be Secure")
	}
	if (Config{Scheme: secure.DoM, Mutation: secure.MutDoMIssueMiss}).Secure() {
		t.Error("mutated DoM should not be Secure")
	}
	for _, s := range []secure.Scheme{secure.NDAP, secure.STT, secure.DoM, secure.NDAS, secure.Cleanup} {
		if !(Config{Scheme: s}).Defends(KindStoreBypass) || !(Config{Scheme: s}).Defends(KindBranchPoison) {
			t.Errorf("%s should defend every gadget kind", s)
		}
	}
	spectre := Config{Scheme: secure.STTSpectre}
	if !spectre.Secure() || spectre.Defends(KindStoreBypass) || !spectre.Defends(KindBoundsCheck) {
		t.Error("stt-spectre should be Secure and defend control speculation only")
	}
}

// TestCheckpointSweepSecureSchemes is the checkpoint subsystem's security
// assertion: routing every gadget run through snapshot/restore midway
// (warm under the target scheme, capture, fork, finish) must stay
// 0-divergent for every intact secure scheme across 256 seeds — i.e. the
// checkpoint path itself introduces no attacker-observable divergence. The unsafe baseline is swept too, as the
// non-vacuousness control: the warm oracle must still see its leaks.
func TestCheckpointSweepSecureSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("256-seed checkpoint sweep skipped in -short mode")
	}
	const warmup = 200 // lands mid-gadget: transient window straddles the restore
	const seeds = 256
	cfgs := DefaultConfigs()
	for i := range cfgs {
		cfgs[i].WarmupInsts = warmup
	}
	res, err := Sweep(context.Background(), cfgs, 0, seeds, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Config.Secure() && len(r.Leaks) > 0 {
			sl := r.Leaks[0]
			t.Errorf("checkpoint path leaks: %d/%d seeds diverge under %s (first: seed %d via %v)",
				len(r.Leaks), r.Seeds, r.Config, sl.Seed, sl.Leak.Components)
			t.Logf("reproduce: seed %d under %s with WarmupInsts=%d\n%s",
				sl.Seed, r.Config, warmup, sl.Leak.Params.Disassemble())
		}
		if !r.Config.Secure() && len(r.Leaks) == 0 {
			t.Errorf("VACUOUS: warm-started %s leaked on 0/%d seeds — the oracle saw nothing", r.Config, r.Seeds)
		}
	}
}
