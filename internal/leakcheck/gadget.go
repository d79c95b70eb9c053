// Package leakcheck is a differential side-channel tester for the secure
// speculation schemes. It generates randomized transient-execution gadgets
// on top of internal/program's builder, runs each gadget twice with only
// the secret bytes differing, and diffs the attacker-observable
// micro-architectural state (sim.MicroDigest): cache tag/LRU contents at
// every level, the MSHR occupancy timeline, predictor tables, traffic
// counters and cycle counts. Any divergence is a leak.
//
// The oracle is the standard hardware-software-contract formulation: under
// a secure scheme, executions that differ only in secret data must be
// indistinguishable to a co-resident attacker. The unsafe baseline must
// diverge (otherwise the oracle is vacuous), and the planted mutations of
// secure.Mutation must each be caught (otherwise the oracle is blind).
package leakcheck

import (
	"fmt"
	"math/rand"
	"strings"

	"doppelganger/internal/isa"
	"doppelganger/internal/predictor"
	"doppelganger/internal/program"
	"doppelganger/sim"
)

// Kind selects the gadget family.
type Kind uint8

// Gadget kinds.
const (
	// KindBoundsCheck is a Spectre-v1 shape: a bounds check whose bound
	// loads from a cold cache line mispredicts on the final round, and the
	// wrong path loads the secret and transmits it through a
	// secret-indexed probe-array load.
	KindBoundsCheck Kind = iota
	// KindStoreBypass is a Spectre-v4 shape: a store to the secret cell
	// whose address operand arrives late is speculatively bypassed by a
	// younger load, which reads the stale secret and transmits it before
	// the memory-order violation squash.
	KindStoreBypass
	// KindBranchPoison is a Spectre-v2 shape realised through gshare
	// counter aliasing: the gadget runs under a small gshare predictor, an
	// attacker phase steers the global history and trains a never-taken
	// branch so that its 2-bit counter aliases the victim branch's
	// (pc XOR history) index, and the victim's always-taken final bounds
	// check — whose bound arrives from a cold line — is steered down the
	// never-executed fall-through, where the secret is loaded and
	// transmitted. Without the poisoning pass the counter sits at its
	// weakly-taken reset state and the wrong path is never fetched.
	KindBranchPoison
	// KindContention transmits through pure MSHR/port pressure instead of
	// a probe-line address: the wrong path extracts one secret bit and
	// issues either PressureWidth loads to one line (a single merged MSHR)
	// or to PressureWidth distinct lines (that many parallel misses). The
	// only secret-dependent observable is the shape of the resulting
	// contention — the MSHR timeline, per-level traffic and occupancy —
	// not any individually secret-addressed line.
	KindContention

	numKinds

	// numSeedKinds is how many kinds Generate samples. Blind generation is
	// frozen at the two original families so every historical seed keeps
	// producing the identical gadget (the contract-matrix golden and the
	// reproducer corpus both depend on that); the newer families are
	// reached by Normalize — and therefore by the fuzzer and the
	// campaign's mutation scheduler — not by seeds.
	numSeedKinds = 2
)

var kindNames = [numKinds]string{
	KindBoundsCheck:  "bounds-check",
	KindStoreBypass:  "store-bypass",
	KindBranchPoison: "branch-poison",
	KindContention:   "contention",
}

// Kinds returns every gadget family in declaration order, including the
// families Generate's frozen seed stream never samples. The campaign's
// mutation scheduler ranges over this.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Gadget parameter bounds. Rounds needs a floor so the branch predictor has
// time to train toward the architectural direction before the final-round
// mispredict.
const (
	minRounds      = 6
	maxRounds      = 24
	maxShadowDepth = 3
	maxChainLen    = 6
	maxTrainLoops  = 2

	// Branch-poison bounds. The floor of two aliasing passes is what makes
	// the attack deterministic: the victim loop can train the target
	// counter up to strongly-taken (3), and each pass decrements it once,
	// so >= 2 passes guarantee it ends weakly-not-taken or lower.
	minAliasTrainings = 2
	maxAliasTrainings = 4
	maxAliasPad       = 16

	// Contention bounds: how many distinct lines the one-bit pressure
	// burst can spread over. The floor of 2 keeps the two pressure shapes
	// (1 line vs PressureWidth lines) distinguishable.
	minPressureWidth = 2
	maxPressureWidth = 6
)

// Exported parameter bounds, for generators that want to sample the
// post-Normalize working ranges directly (internal/campaign's stratified
// exploration arm) instead of over-drawing and letting Normalize clamp.
const (
	MinRounds         = minRounds
	MaxRounds         = maxRounds
	MaxShadowDepth    = maxShadowDepth
	MaxChainLen       = maxChainLen
	MaxTrainLoops     = maxTrainLoops
	MaxAliasTrainings = maxAliasTrainings
	MaxAliasPad       = maxAliasPad
	MaxPressureWidth  = maxPressureWidth

	// minSecret keeps secrets above every probe index reachable from
	// public execution, so the wrong-path probe line is guaranteed cold
	// and distinct from every committed or prefetched line in both runs.
	// The transmission chain is affine mod 256, so the publicly
	// reachable probe indices are exactly f({0..7} + prefetch reach);
	// with PrefetchDistance 12 and degree 2 that is f({0..21}).
	// Without this margin a secret could alias a publicly warmed line
	// and mask — or, under DoM's hit/miss asymmetry, falsely time — the
	// transmission.
	minSecret = 24
)

// Gadget memory layout (byte addresses). Regions are far apart so the only
// cache lines two runs can disagree on are the secret-indexed probe lines.
const (
	idxTableBase = 0x10_000  // per-round index sequence (bounds-check kind)
	arrBase      = 0x20_000  // victim array; the secret sits past its end
	probeBase    = 0x40_000  // 256-line transmission array
	probe2Base   = 0x48_000  // second transmission array (DoubleTransmit)
	guardBase    = 0x60_000  // cold lines producing late-arriving operands
	trainBase    = 0x80_000  // committed streaming loads (predictor warm-up)
	cellBase     = 0xA0_000  // secret cell (store-bypass kind)
	ptabBase     = 0xC0_000  // per-round pointers into the guard region
	cptabBase    = 0xD0_000  // per-round pointers into the pressure region
	contBase     = 0xE0_000  // pressure-burst lines (contention kind)
	primeBase    = 0x140_000 // L1-priming pad (Prime feature)

	lineSize   = 64
	secretWord = 64 // word offset of the secret past arrBase (line-disjoint)
	boundValue = 8  // architectural bound: in-bounds indices are 0..7
	pubValue   = 77 // public value the bypassed store writes

	// primeLines covers the default L1D exactly: 48 KB of 64-byte lines is
	// 64 sets x 12 ways = 768 lines, so a committed walk over this many
	// consecutive prime-pad lines leaves every L1 set completely full of
	// valid lines. From then on every fill must evict — which is what makes
	// rollback fidelity observable (see Params.Prime).
	primeLines = 768
)

// Register allocation. The builder panics on out-of-range registers, so
// these stay well inside isa.NumRegs.
const (
	rAcc    = isa.Reg(1)  // committed accumulator (keeps loads live)
	rPIdx   = isa.Reg(2)  // index-table cursor
	rPEnd   = isa.Reg(3)  // index-table end
	rPGuard = isa.Reg(4)  // guard-region cursor
	rIdx    = isa.Reg(5)  // current index / round counter
	rBound  = isa.Reg(6)  // late-arriving bound
	rT      = isa.Reg(7)  // address temporary
	rX      = isa.Reg(8)  // transmitted value
	rY      = isa.Reg(9)  // probe result
	rZ      = isa.Reg(10) // second-channel temporary
	rPtr    = isa.Reg(11) // train-loop cursor
	rCnt    = isa.Reg(12) // train-loop counter
	rLim    = isa.Reg(13) // train-loop limit
	rTmp    = isa.Reg(14) // victim warm-up scratch
	rPCell  = isa.Reg(15) // secret-cell pointer (store-bypass)
	rPub    = isa.Reg(16) // public store value (store-bypass)
	rSBase  = isa.Reg(17) // late-resolving store base (store-bypass)
	rPTab   = isa.Reg(18) // guard-pointer-table cursor
	rGB     = isa.Reg(19) // this round's guard base (loaded from the table)
	rZero   = isa.Reg(20) // always-zero operand for history-steering branches
	rCPT    = isa.Reg(21) // pressure-pointer-table cursor (contention)
	rCB     = isa.Reg(22) // this round's pressure base (loaded from the table)
)

// gshare sizing for the branch-poison kind: small enough that one steered
// pass per training covers the aliased counter deterministically, and the
// (pc XOR history) index arithmetic below can align on a 64-entry table.
const (
	gshareEntries     = 64
	gshareHistoryBits = 6
)

// Params fully determines a gadget program (together with the secret byte
// passed to Build). All fields are derived deterministically from Seed by
// Generate, but the fuzzer mutates them directly, so Build accepts any
// combination after Normalize.
type Params struct {
	Seed int64
	Kind Kind
	// Rounds is the number of trips through the access loop. In the
	// bounds-check kind all but the last are in-bounds training rounds.
	Rounds int
	// ShadowDepth adds extra speculation shadows around the transmission:
	// nested bounds checks whose bounds load from cold lines.
	ShadowDepth int
	// ChainLen inserts extra ALU operations between the secret load and
	// the transmitting access. Operations are restricted to bijections
	// mod 256 (AddI, MulI by an odd constant) so distinct secrets always
	// transmit through distinct probe lines.
	ChainLen int
	// TrainLoops prepends committed streaming loops that warm the stride
	// predictor/prefetcher table with public patterns.
	TrainLoops int
	// DoubleTransmit adds a second secret-dependent load into a disjoint
	// probe array.
	DoubleTransmit bool
	// AliasTrainings (branch-poison kind) is how many times the attacker
	// phase trains the aliased gshare counter toward not-taken. At least
	// minAliasTrainings passes are needed to defeat a counter the victim
	// loop saturated at strongly-taken.
	AliasTrainings int
	// AliasPad (branch-poison kind) inserts padding between the poisoning
	// phase and the victim's final round, perturbing code placement (and
	// with it fetch alignment) without changing the aliased index — the
	// emitter re-aligns the victim branch after the pad.
	AliasPad int
	// PressureWidth (contention kind) is how many loads the wrong-path
	// pressure burst issues: all to one line when the probed secret bit is
	// 0, to PressureWidth distinct lines when it is 1.
	PressureWidth int
	// SecretBit (contention kind) selects which bit of the secret byte
	// drives the pressure shape. The contention channel is one bit wide: a
	// differential pair whose secrets agree at this bit is (correctly)
	// indistinguishable even unprotected.
	SecretBit int
	// Prime prepends a committed walk over exactly one L1's worth of pad
	// lines, leaving every L1 set full before the gadget body runs. With
	// sets full, the wrong-path probe fill must evict a victim, so schemes
	// that undo speculation (Cleanup) are tested on eviction rollback, not
	// just on fills into invalid ways: dropping the evicted line leaves a
	// secret-shaped hole, and skipping the LRU undo leaves the reinstated
	// victim with the speculative recency stamp. Generate never samples
	// this field — the frozen seed stream (contract-matrix golden, corpus)
	// is unchanged — it is reached by the campaign's mutation and
	// exploration arms and by the mutation gauntlet's bias for undo
	// schemes.
	Prime bool
	// SecretA and SecretB are the two secret bytes; the differential pair
	// is (Build(SecretA), Build(SecretB)).
	SecretA, SecretB uint8
}

// Generate derives the gadget parameters for a seed. The same seed always
// yields the same Params, so a leak report is reproducible from its seed
// alone. Generate samples only the frozen numSeedKinds families; the newer
// families enter through Normalize (fuzzing and campaign mutation).
func Generate(seed int64) Params {
	r := rand.New(rand.NewSource(seed))
	p := Params{
		Seed:           seed,
		Kind:           Kind(r.Intn(numSeedKinds)),
		Rounds:         minRounds + r.Intn(maxRounds-minRounds+1),
		ShadowDepth:    r.Intn(maxShadowDepth + 1),
		ChainLen:       r.Intn(maxChainLen + 1),
		TrainLoops:     r.Intn(maxTrainLoops + 1),
		DoubleTransmit: r.Intn(2) == 1,
	}
	p.SecretA = uint8(minSecret + r.Intn(256-minSecret))
	p.SecretB = uint8(minSecret + r.Intn(256-minSecret-1))
	if p.SecretB >= p.SecretA {
		p.SecretB++
	}
	return p
}

// Normalize clamps the parameters into the ranges Build supports and
// forces the secrets into [minSecret, 255] with SecretA != SecretB. The
// fuzzer feeds arbitrary field values through this.
func (p Params) Normalize() Params {
	p.Kind %= numKinds
	p.Rounds = clamp(p.Rounds, minRounds, maxRounds)
	p.ShadowDepth = clamp(p.ShadowDepth, 0, maxShadowDepth)
	p.ChainLen = clamp(p.ChainLen, 0, maxChainLen)
	p.TrainLoops = clamp(p.TrainLoops, 0, maxTrainLoops)
	// Kind-specific fields clamp to their working range on the owning kind
	// and to [0, max] elsewhere, so legacy params (all zeros) stay fixed
	// points and normalization is idempotent either way.
	minAlias, minPress := 0, 0
	if p.Kind == KindBranchPoison {
		minAlias = minAliasTrainings
	}
	if p.Kind == KindContention {
		minPress = minPressureWidth
	}
	p.AliasTrainings = clamp(p.AliasTrainings, minAlias, maxAliasTrainings)
	p.AliasPad = clamp(p.AliasPad, 0, maxAliasPad)
	p.PressureWidth = clamp(p.PressureWidth, minPress, maxPressureWidth)
	p.SecretBit = clamp(p.SecretBit, 0, 7)
	if p.SecretA < minSecret {
		p.SecretA += minSecret
	}
	if p.SecretB < minSecret {
		p.SecretB += minSecret
	}
	if p.SecretA == p.SecretB {
		// Flipping bit 0 preserves >= minSecret and guarantees distinctness.
		p.SecretB = p.SecretA ^ 1
	}
	return p
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String renders the parameters compactly for leak reports. Kind-specific
// fields are appended only for the kinds that read them.
func (p Params) String() string {
	s := fmt.Sprintf("seed=%d kind=%s rounds=%d depth=%d chain=%d train=%d double=%t secrets=0x%02x/0x%02x",
		p.Seed, p.Kind, p.Rounds, p.ShadowDepth, p.ChainLen, p.TrainLoops,
		p.DoubleTransmit, p.SecretA, p.SecretB)
	switch p.Kind {
	case KindBranchPoison:
		s += fmt.Sprintf(" alias=%d pad=%d", p.AliasTrainings, p.AliasPad)
	case KindContention:
		s += fmt.Sprintf(" width=%d bit=%d", p.PressureWidth, p.SecretBit)
	}
	if p.Prime {
		// Appended only when set, so every historical rendering (corpus
		// keys, golden matrix entries) is byte-identical.
		s += " prime=true"
	}
	return s
}

// chainOp is one ALU step of the transmission chain. Both forms are
// bijective mod 256 (k is odd when mul), so composed chains keep distinct
// secrets on distinct probe lines.
type chainOp struct {
	mul bool
	k   int64
}

// chainOps derives the chain from the seed. The stream depends only on
// Seed, so a shorter ChainLen is a strict prefix — minimization can shrink
// the chain without changing the surviving steps.
func (p Params) chainOps(r *rand.Rand) []chainOp {
	r.Seed(p.Seed ^ 0x5bf0_3635)
	ops := make([]chainOp, 0, p.ChainLen)
	for i := 0; i < p.ChainLen; i++ {
		if r.Intn(2) == 0 {
			ops = append(ops, chainOp{mul: false, k: int64(1 + r.Intn(255))})
		} else {
			ops = append(ops, chainOp{mul: true, k: int64(1 + 2*r.Intn(128))})
		}
	}
	return ops
}

// initGuardTable lays out the guard region and the per-round pointer table.
// Each round owns ShadowDepth+1 consecutive guard lines, but rounds visit
// the region in a seed-derived pseudorandom order read through the pointer
// table. The indirection matters: a linear walk has a constant stride, so
// the commit-trained prefetcher would warm future guard lines and collapse
// the speculation window the gadget needs. The table itself is
// stride-prefetchable — its contents are not.
//
// Guard line d of round i holds boundVal[d]; the returned per-round base
// addresses are what the table holds.
func (p Params) initGuardTable(b *program.Builder, r *rand.Rand, boundVal func(d int) int64) {
	perRound := uint64(p.ShadowDepth+1) * lineSize
	r.Seed(p.Seed ^ 0x7f4a_7c15)
	order := r.Perm(p.Rounds)
	for i := 0; i < p.Rounds; i++ {
		base := guardBase + uint64(order[i])*perRound
		b.InitMem(ptabBase+uint64(i)*program.WordSize, int64(base))
		for d := 0; d <= p.ShadowDepth; d++ {
			b.InitMem(base+uint64(d)*lineSize, boundVal(d))
		}
	}
}

// Build constructs the gadget program with the given secret byte planted.
// Two builds of the same Params differ only in the one initial-memory word
// holding the secret — everything an attacker may legitimately observe is
// identical by construction.
func (p Params) Build(secret uint8) *program.Program {
	p = p.Normalize()
	// One generator per build, reseeded in place at each use: a source is
	// about 4.9 KB, and Seed restarts exactly the stream NewSource would.
	r := rand.New(rand.NewSource(p.Seed))
	switch p.Kind {
	case KindStoreBypass:
		return p.buildStoreBypass(secret, r)
	case KindBranchPoison:
		return p.buildBranchPoison(secret, r)
	case KindContention:
		return p.buildContention(secret, r)
	default:
		return p.buildBoundsCheck(secret, r)
	}
}

// CoreConfig returns the micro-architectural configuration the gadget is
// checked under. The branch-poison kind swaps in the small gshare direction
// predictor its aliasing arithmetic is built against; every other kind uses
// the paper's default core unchanged, so historical observations are
// untouched.
func (p Params) CoreConfig() sim.CoreConfig {
	cc := sim.DefaultCoreConfig()
	if p.Kind == KindBranchPoison {
		cc.BranchPredictorKind = sim.BranchGShare
		cc.GShare = predictor.GShareConfig{Entries: gshareEntries, HistoryBits: gshareHistoryBits}
	}
	return cc
}

// emitPrime emits the L1-priming walk when Params.Prime is set: a committed
// loop loading one word from each of primeLines consecutive pad lines. The
// walk is public and identical across the differential pair, and it runs
// before everything else, so after it (and inductively forever after, since
// fills into a full set evict rather than occupy invalid ways) every L1 set
// holds only valid lines. The pad words are never initialized — loads of
// uninitialized memory read zero, and only the fills matter.
func (p Params) emitPrime(b *program.Builder) {
	if !p.Prime {
		return
	}
	b.LoadI(rPtr, primeBase)
	b.LoadI(rCnt, 0)
	b.LoadI(rLim, primeLines)
	loop := b.Here()
	b.Load(rT, rPtr, 0)
	b.AddI(rPtr, rPtr, lineSize)
	b.AddI(rCnt, rCnt, 1)
	b.Blt(rCnt, rLim, loop)
}

// emitTrainLoops prepends committed streaming loops over public data,
// giving the stride predictor/prefetcher table confident public entries
// before the gadget body runs.
func (p Params) emitTrainLoops(b *program.Builder) {
	for l := 0; l < p.TrainLoops; l++ {
		base := uint64(trainBase + l*0x1000)
		for i := 0; i < 16; i++ {
			b.InitMem(base+uint64(i)*program.WordSize, int64(i+1))
		}
		b.LoadI(rPtr, int64(base))
		b.LoadI(rCnt, 0)
		b.LoadI(rLim, 16)
		loop := b.Here()
		b.Load(rT, rPtr, 0)
		b.AddI(rPtr, rPtr, program.WordSize)
		b.AddI(rCnt, rCnt, 1)
		b.Blt(rCnt, rLim, loop)
	}
}

// emitTransmit lowers the chain and the probe access(es): rX holds the
// value to transmit; after the chain it indexes the probe array at line
// granularity. On the committed path rX is always public.
func (p Params) emitTransmit(b *program.Builder, r *rand.Rand) {
	for _, op := range p.chainOps(r) {
		if op.mul {
			b.MulI(rX, rX, op.k)
		} else {
			b.AddI(rX, rX, op.k)
		}
	}
	b.AndI(rX, rX, 255)
	b.ShlI(rT, rX, 6)
	b.AddI(rT, rT, probeBase)
	b.Load(rY, rT, 0)
	b.Add(rAcc, rAcc, rY)
	if p.DoubleTransmit {
		// A second, independently mixed channel: x*3+11 is bijective mod
		// 256, so the probe2 line is also distinct across distinct secrets.
		b.MulI(rZ, rX, 3)
		b.AddI(rZ, rZ, 11)
		b.AndI(rZ, rZ, 255)
		b.ShlI(rZ, rZ, 6)
		b.AddI(rZ, rZ, probe2Base)
		b.Load(rZ, rZ, 0)
		b.Add(rAcc, rAcc, rZ)
	}
}

// buildBoundsCheck emits the Spectre-v1 shape. The index table holds
// in-bounds values for every round but the last, whose entry points at the
// secret word past the array's end. Each round's bound loads from a fresh
// cold guard line, holding the bounds checks unresolved while the wrong
// path runs.
func (p Params) buildBoundsCheck(secret uint8, r *rand.Rand) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("leakcheck/%s/seed%d", p.Kind, p.Seed))

	// In-bounds indices are seed-random, not cyclic: a repeating ramp
	// would give the committed probe accesses a near-constant stride for
	// the prefetcher to extend.
	r.Seed(p.Seed ^ 0x2545_f491)
	for i := 0; i < p.Rounds; i++ {
		v := int64(r.Intn(boundValue))
		if i == p.Rounds-1 {
			v = secretWord
		}
		b.InitMem(idxTableBase+uint64(i)*program.WordSize, v)
	}
	p.initGuardTable(b, r, func(int) int64 { return boundValue })
	for i := 0; i < boundValue; i++ {
		b.InitMem(arrBase+uint64(i)*program.WordSize, int64(i))
	}
	b.SecretWord(arrBase+secretWord*program.WordSize, int64(secret))

	p.emitPrime(b)

	// Victim phase: the victim touches its own secret architecturally,
	// leaving the line warm so the wrong-path load hits the L1 and the
	// transmission races ahead of the late bounds check.
	b.LoadI(rTmp, arrBase)
	b.Load(rTmp, rTmp, secretWord*program.WordSize)

	p.emitTrainLoops(b)

	b.LoadI(rAcc, 0)
	b.LoadI(rPIdx, idxTableBase)
	b.LoadI(rPEnd, idxTableBase+int64(p.Rounds)*program.WordSize)
	b.LoadI(rPTab, ptabBase)
	loop := b.NewLabel()
	skip := b.NewLabel()
	b.Bind(loop)
	b.Load(rIdx, rPIdx, 0)
	b.Load(rGB, rPTab, 0)
	// The in-bounds direction is TAKEN (Blt to the access), matching the
	// bimodal counters' weakly-taken reset state. With the inverse sense
	// the first rounds would all mispredict toward skip and the wrong
	// path would stream ahead through the remaining rounds, transiently
	// warming every guard line and collapsing the speculation window the
	// final round needs.
	for d := 0; d <= p.ShadowDepth; d++ {
		next := b.NewLabel()
		b.Load(rBound, rGB, int64(d)*lineSize)
		b.Blt(rIdx, rBound, next)
		b.Jmp(skip)
		b.Bind(next)
	}
	b.ShlI(rT, rIdx, 3)
	b.AddI(rT, rT, arrBase)
	b.Load(rX, rT, 0)
	p.emitTransmit(b, r)
	b.Bind(skip)
	b.AddI(rPIdx, rPIdx, program.WordSize)
	b.AddI(rPTab, rPTab, program.WordSize)
	b.Blt(rPIdx, rPEnd, loop)
	b.Store(rAcc, rPEnd, 0)
	b.Halt()
	return b.MustBuild()
}

// buildStoreBypass emits the Spectre-v4 shape. Each round stores a public
// value to the secret cell through a base register that arrives from a
// cold guard line, so the store's address resolves late; the younger load
// of the cell issues first and reads the stale value — the secret on round
// one — and transmits it before the violation squash. ShadowDepth adds
// never-taken bounds checks with cold bounds, deepening the shadow without
// changing the architectural path.
func (p Params) buildStoreBypass(secret uint8, r *rand.Rand) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("leakcheck/%s/seed%d", p.Kind, p.Seed))

	// Guard line 0 of each round holds the store's base address (the
	// secret cell); the remaining lines hold never-exceeded bounds.
	p.initGuardTable(b, r, func(d int) int64 {
		if d == 0 {
			return cellBase
		}
		return 1 << 40
	})
	b.SecretWord(cellBase, int64(secret))

	p.emitPrime(b)

	// Victim phase: warm the cell line so the bypassing load is an L1 hit
	// (and thus propagates even under Delay-on-Miss).
	b.LoadI(rPCell, cellBase)
	b.Load(rTmp, rPCell, 0)

	p.emitTrainLoops(b)

	b.LoadI(rAcc, 0)
	b.LoadI(rPub, pubValue)
	b.LoadI(rPTab, ptabBase)
	b.LoadI(rCnt, 0)
	b.LoadI(rLim, int64(p.Rounds))
	loop := b.NewLabel()
	skip := b.NewLabel()
	b.Bind(loop)
	b.Load(rGB, rPTab, 0)
	// Never-exceeded bounds, checked in the taken sense so the reset-state
	// predictor is correct from round one (see buildBoundsCheck).
	for d := 1; d <= p.ShadowDepth; d++ {
		next := b.NewLabel()
		b.Load(rBound, rGB, int64(d)*lineSize)
		b.Blt(rCnt, rBound, next)
		b.Jmp(skip)
		b.Bind(next)
	}
	b.Load(rSBase, rGB, 0)
	b.Store(rPub, rSBase, 0)
	b.Load(rX, rPCell, 0)
	p.emitTransmit(b, r)
	b.Bind(skip)
	b.AddI(rPTab, rPTab, program.WordSize)
	b.AddI(rCnt, rCnt, 1)
	b.Blt(rCnt, rLim, loop)
	b.Store(rAcc, rPCell, program.WordSize)
	b.Halt()
	return b.MustBuild()
}

// emitNeverTaken emits one never-taken branch whose taken target hops over
// a Nop. The hop is load-bearing: fetch shifts the PREDICTED outcome into
// the speculative history, and a branch whose taken target equals its
// fall-through never registers as a mispredict, so a wrong predicted bit
// would stay in the history (and in u.hist, which commit-time training
// indexes with) forever. With the targets distinct, any wrong prediction is
// a detected mispredict: the squash repairs the history with the
// architectural bit and refetches everything younger. By induction every
// downstream fetch — and every commit-time training — then sees the
// architectural history.
func emitNeverTaken(b *program.Builder) {
	nxt := b.NewLabel()
	b.Bne(rZero, rZero, nxt)
	b.Nop()
	b.Bind(nxt)
}

// emitHistoryFlush emits gshareHistoryBits never-taken branches, shifting
// architectural zeros through the entire history register — regardless of
// what ran before, and regardless of which direction the hardware folds
// outcomes in. Under all-zero history a branch's table index is simply its
// pc masked to the table, which is what lets the emitter align aliases at
// build time.
func emitHistoryFlush(b *program.Builder) {
	for i := 0; i < gshareHistoryBits; i++ {
		emitNeverTaken(b)
	}
}

// alignPC pads with Nops until the next instruction's pc aliases target in
// the gshare table (equal modulo the table size). Nops leave the branch
// history untouched, so alignment composes with emitHistoryFlush.
func alignPC(b *program.Builder, target int) {
	for b.PC()&(gshareEntries-1) != target&(gshareEntries-1) {
		b.Nop()
	}
}

// buildBranchPoison emits the Spectre-v2 shape. The victim's bounds check
// is architecturally ALWAYS taken (the index is constant and out of
// bounds), so — unlike the Spectre-v1 kind — no amount of the victim's own
// history can steer it wrong: gshare counters reset weakly-taken and only
// ever see taken outcomes from this branch. The transient window exists
// only because a separate attacker phase trains an unrelated never-taken
// branch whose (pc XOR history) index aliases the victim's: with the
// history register zeroed by not-taken filler branches, aliasing reduces to
// pc congruence modulo the table size, which the emitter arranges exactly.
// A cold-operand commit barrier between the phases guarantees the poisoning
// passes have retired (training happens at commit) before the victim's
// final round is fetched, making the mispredict deterministic rather than
// fetch-depth dependent.
func (p Params) buildBranchPoison(secret uint8, r *rand.Rand) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("leakcheck/%s/seed%d", p.Kind, p.Seed))

	for i := 0; i < boundValue; i++ {
		b.InitMem(arrBase+uint64(i)*program.WordSize, int64(i))
	}
	b.SecretWord(arrBase+secretWord*program.WordSize, int64(secret))
	// Guard line 0 holds the final round's late-arriving bound; line 1
	// feeds the commit barrier. Both stay cold until their single use.
	b.InitMem(guardBase, boundValue)
	b.InitMem(guardBase+lineSize, 1)

	p.emitPrime(b)

	// Victim phase: warm the secret line so the wrong-path load hits L1
	// and the transmission races the late bounds check.
	b.LoadI(rTmp, arrBase)
	b.Load(rTmp, rTmp, secretWord*program.WordSize)

	p.emitTrainLoops(b)

	b.LoadI(rAcc, 0)
	b.LoadI(rZero, 0)
	b.LoadI(rIdx, secretWord)   // constant, always out of bounds
	b.LoadI(rBound, boundValue) // warm: training trips resolve immediately

	// Victim loop: Rounds-1 trips through the single branch site, all
	// taken. The access path below it is dead code on every trip — fetch
	// never goes there while the counters lean taken.
	b.LoadI(rCnt, 0)
	b.LoadI(rLim, int64(p.Rounds-1))
	loop := b.NewLabel()
	cont := b.NewLabel()
	b.Bind(loop)
	b.Bge(rIdx, rBound, cont)
	b.ShlI(rT, rIdx, 3)
	b.AddI(rT, rT, arrBase)
	b.Load(rX, rT, 0)
	p.emitTransmit(b, r)
	b.Bind(cont)
	b.AddI(rCnt, rCnt, 1)
	b.Blt(rCnt, rLim, loop)

	// Attacker phase: each pass flushes the history to zero and trains two
	// never-taken poison branches — one aliasing the victim's final branch
	// (poisonPC), one aliasing the commit barrier (barrierPC). Not-taken
	// training decrements the 2-bit counters; after minAliasTrainings
	// passes both sit at weakly-not-taken or lower even if the victim loop
	// had saturated them taken.
	b.LoadI(rCnt, 0)
	b.LoadI(rLim, int64(p.AliasTrainings))
	ploop := b.NewLabel()
	b.Bind(ploop)
	emitHistoryFlush(b)
	poisonPC := b.PC()
	emitNeverTaken(b)
	barrierPC := b.PC() // nearby pc: a distinct counter from poisonPC's
	emitNeverTaken(b)
	b.AddI(rCnt, rCnt, 1)
	b.Blt(rCnt, rLim, ploop)

	for i := 0; i < p.AliasPad; i++ {
		b.Nop()
	}

	// Commit barrier: a branch at the barrier-aliased pc whose operand
	// arrives from a cold line. It predicts not-taken (its counter was
	// just poisoned), resolves taken only when DRAM answers, and the
	// squash refetches at bar — by which point every poisoning pass has
	// retired and the training is architectural. Its own taken commit
	// re-trains only the barrier counter, never the victim's.
	b.LoadI(rPGuard, guardBase)
	b.Load(rY, rPGuard, lineSize)
	emitHistoryFlush(b)
	alignPC(b, barrierPC)
	bar := b.NewLabel()
	b.Bge(rY, rZero, bar) // architecturally taken: the cold line holds 1
	b.Nop()
	b.Nop()
	b.Bind(bar)

	// Final round: the bound now loads cold, the history is flushed to
	// zero, and the branch pc aliases the poisoned counter — fetch is
	// steered down the never-executed access path while the check
	// resolves, and the secret transmits from inside the shadow.
	b.Load(rBound, rPGuard, 0)
	emitHistoryFlush(b)
	alignPC(b, poisonPC)
	done := b.NewLabel()
	b.Bge(rIdx, rBound, done)
	b.ShlI(rT, rIdx, 3)
	b.AddI(rT, rT, arrBase)
	b.Load(rX, rT, 0)
	p.emitTransmit(b, r)
	b.Bind(done)
	b.Store(rAcc, rZero, trainBase)
	b.Halt()
	return b.MustBuild()
}

// buildContention emits the MSHR/port-pressure shape. The skeleton is the
// Spectre-v1 bounds check — trained-taken rounds, a final round whose index
// is out of bounds and whose bound arrives cold — but the wrong path does
// not touch any secret-indexed line. It extracts one bit of the value and
// issues PressureWidth loads whose ADDRESS SET depends only on that bit:
// all to one line (one merged MSHR) for 0, to PressureWidth distinct lines
// (that many parallel misses) for 1. What diverges between the runs is the
// shape of the contention — the MSHR timeline, traffic, fills — not the
// identity of any secret-indexed probe line.
//
// Every round draws its burst lines from its own disjoint block of the
// pressure region, visited in seed-random order through a pointer table
// (the same indirection initGuardTable uses, for the same reason: a linear
// walk would let the stride prefetcher warm future blocks). Committed
// in-bounds rounds therefore warm only their own block, and the final
// round's burst lines are cold in both runs — so under Delay-on-Miss every
// secret-shaped load is a delayed speculative miss that never issues, and
// the pair stays indistinguishable, while the unsafe baseline's burst
// reaches the MSHRs and diverges.
func (p Params) buildContention(secret uint8, r *rand.Rand) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("leakcheck/%s/seed%d", p.Kind, p.Seed))

	r.Seed(p.Seed ^ 0x2545_f491)
	for i := 0; i < p.Rounds; i++ {
		v := int64(r.Intn(boundValue))
		if i == p.Rounds-1 {
			v = secretWord
		}
		b.InitMem(idxTableBase+uint64(i)*program.WordSize, v)
	}
	p.initGuardTable(b, r, func(int) int64 { return boundValue })
	for i := 0; i < boundValue; i++ {
		b.InitMem(arrBase+uint64(i)*program.WordSize, int64(i))
	}
	b.SecretWord(arrBase+secretWord*program.WordSize, int64(secret))

	// Per-round pressure blocks: maxPressureWidth+1 lines each, in their
	// own pseudorandom round order.
	perBlock := uint64(maxPressureWidth+1) * lineSize
	r.Seed(p.Seed ^ 0x51_7cc1)
	order := r.Perm(p.Rounds)
	for i := 0; i < p.Rounds; i++ {
		base := contBase + uint64(order[i])*perBlock
		b.InitMem(cptabBase+uint64(i)*program.WordSize, int64(base))
		for d := 0; d <= maxPressureWidth; d++ {
			b.InitMem(base+uint64(d)*lineSize, int64(d+1))
		}
	}

	p.emitPrime(b)

	// Victim phase, training loops and the round loop mirror the
	// bounds-check kind; see buildBoundsCheck for the reasoning.
	b.LoadI(rTmp, arrBase)
	b.Load(rTmp, rTmp, secretWord*program.WordSize)

	p.emitTrainLoops(b)

	b.LoadI(rAcc, 0)
	b.LoadI(rPIdx, idxTableBase)
	b.LoadI(rPEnd, idxTableBase+int64(p.Rounds)*program.WordSize)
	b.LoadI(rPTab, ptabBase)
	b.LoadI(rCPT, cptabBase)
	loop := b.NewLabel()
	skip := b.NewLabel()
	b.Bind(loop)
	b.Load(rIdx, rPIdx, 0)
	b.Load(rGB, rPTab, 0)
	b.Load(rCB, rCPT, 0)
	for d := 0; d <= p.ShadowDepth; d++ {
		next := b.NewLabel()
		b.Load(rBound, rGB, int64(d)*lineSize)
		b.Blt(rIdx, rBound, next)
		b.Jmp(skip)
		b.Bind(next)
	}
	b.ShlI(rT, rIdx, 3)
	b.AddI(rT, rT, arrBase)
	b.Load(rX, rT, 0)
	// The pressure burst. In-bounds rounds run it architecturally with the
	// public array values, so the committed pressure patterns are
	// identical across the pair; only the final wrong-path burst carries
	// the secret bit.
	b.ShrI(rZ, rX, int64(p.SecretBit))
	b.AndI(rZ, rZ, 1)
	for i := 1; i <= p.PressureWidth; i++ {
		b.MulI(rT, rZ, int64(i*lineSize))
		b.Add(rT, rT, rCB)
		b.Load(rY, rT, 0)
		b.Add(rAcc, rAcc, rY)
	}
	b.Bind(skip)
	b.AddI(rPIdx, rPIdx, program.WordSize)
	b.AddI(rPTab, rPTab, program.WordSize)
	b.AddI(rCPT, rCPT, program.WordSize)
	b.Blt(rPIdx, rPEnd, loop)
	b.Store(rAcc, rPEnd, 0)
	b.Halt()
	return b.MustBuild()
}

// Disassemble renders the gadget (built with SecretA) as annotated
// assembly, for leak reports and reproducers.
func (p Params) Disassemble() string {
	p = p.Normalize()
	prog := p.Build(p.SecretA)
	var sb strings.Builder
	fmt.Fprintf(&sb, "; %s\n", p)
	for pc, in := range prog.Code {
		fmt.Fprintf(&sb, "%4d: %s\n", pc, in.String())
	}
	return sb.String()
}
