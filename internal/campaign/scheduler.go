package campaign

import (
	"math/rand"

	"doppelganger/internal/leakcheck"
)

// Scheduler decides what to evaluate next. It runs two arms — fresh random
// genomes and mutants of coverage-bearing parents — as a yield-tracked
// bandit: each draw goes to the arm currently paying more fresh cells per
// evaluation, with a fixed exploration fraction keeping both arms alive.
// Early on the random arm dominates (an empty map pays any draw); as the
// broad features saturate, the mutation arm's hill-climbing over the
// smooth features overtakes it and the budget follows. Parents are drawn
// by energy-weighted roulette, energy being the fresh coverage the input
// found. Deterministic for a fixed seed and feedback order.
type Scheduler struct {
	rng    *rand.Rand
	inputs []queued
	total  int

	arms  [2]armStats
	armOf map[string]int

	visits map[string]map[int]int

	// draws remembers what each outstanding Next() charged against the
	// bookkeeping above (parent energy decrement, balanced-field visit
	// bumps), so Forget can refund a drawn-but-never-evaluated genome
	// instead of leaving the charges to accumulate. inputs is append-only,
	// so the recorded parent index stays valid.
	draws map[string]drawRecord
	// pendingVisits collects the balanced() bumps of the draw in progress.
	pendingVisits []fieldVisit
}

type queued struct {
	params leakcheck.Params
	energy int
}

type drawRecord struct {
	parent      int // index into inputs; -1 for the random arm
	decremented bool
	visits      []fieldVisit
}

type fieldVisit struct {
	field string
	val   int
}

type armStats struct {
	pulls float64
	yield float64 // fresh cells credited to this arm's draws
}

const (
	armRandom = 0
	armMutate = 1
)

// baseEnergy is every input's floor, so old inputs keep a nonzero chance
// of selection after the map around them saturates.
const baseEnergy = 1

// NewScheduler returns an empty scheduler drawing from the given seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{
		rng:    rand.New(rand.NewSource(seed)),
		armOf:  make(map[string]int),
		visits: make(map[string]map[int]int),
		draws:  make(map[string]drawRecord),
	}
}

// Len returns the number of queued inputs.
func (s *Scheduler) Len() int { return len(s.inputs) }

// armDecay discounts both arms' statistics at every credited evaluation,
// so the bandit compares *recent* fresh-cells-per-pull, not lifetime. The
// random arm's enormous empty-map-era payoff must not keep its ratio
// inflated after that regime ends; with decay the effective window is a
// few dozen evaluations.
const armDecay = 0.9

// Add feeds back the result of evaluating a genome: it discovered newCells
// fresh coverage cells. The genome's arm is credited either way; the
// genome itself is queued as a mutation parent only if it found something
// (an input that found nothing new is already represented by an earlier
// one and is not worth mutating).
func (s *Scheduler) Add(p leakcheck.Params, newCells int) {
	key := p.String()
	delete(s.draws, key) // the draw's charges are now spent, not refundable
	if arm, ok := s.armOf[key]; ok {
		delete(s.armOf, key)
		for i := range s.arms {
			s.arms[i].pulls *= armDecay
			s.arms[i].yield *= armDecay
		}
		s.arms[arm].pulls++
		if newCells > 0 {
			s.arms[arm].yield += float64(newCells)
		}
	}
	if newCells <= 0 {
		return
	}
	e := baseEnergy + newCells
	s.inputs = append(s.inputs, queued{params: p, energy: e})
	s.total += e
}

// pick draws a parent genome by energy-weighted roulette and decays the
// winner's energy by one (down to the floor). Early inputs discover huge
// cell counts simply because the map is empty; without decay their energy
// would dominate the roulette forever and the campaign would fixate on one
// basin. Decay spends that initial advantage across picks, shifting the
// budget toward whichever inputs keep earning fresh energy. It reports
// which input won and whether its energy was decremented — what Forget
// needs to refund the draw.
func (s *Scheduler) pick() (idx int, decremented bool) {
	t := s.rng.Intn(s.total)
	for i := range s.inputs {
		t -= s.inputs[i].energy
		if t < 0 {
			if s.inputs[i].energy > baseEnergy {
				s.inputs[i].energy--
				s.total--
				return i, true
			}
			return i, false
		}
	}
	return len(s.inputs) - 1, false
}

// Forget cancels a drawn-but-never-evaluated genome (e.g. a duplicate the
// campaign filtered out before simulating). Pulls are only counted when
// the evaluation is credited back via Add, but the roulette already
// decremented the parent's energy and the exploration arm already bumped
// its balanced-field visit counts — without a refund those charges
// accumulate across every filtered duplicate, silently starving exactly
// the high-coverage parents dedup hits most often.
func (s *Scheduler) Forget(p leakcheck.Params) {
	key := p.String()
	delete(s.armOf, key)
	rec, ok := s.draws[key]
	if !ok {
		return
	}
	delete(s.draws, key)
	if rec.decremented {
		s.inputs[rec.parent].energy++
		s.total++
	}
	for _, v := range rec.visits {
		if m := s.visits[v.field]; m[v.val] > 0 {
			m[v.val]--
		}
	}
}

// pickArm chooses which arm the next draw spends its evaluation on: 1/8
// exploration, otherwise the arm with the better recent
// fresh-cells-per-pull ratio (optimistically smoothed, so an idle arm
// stays worth probing).
func (s *Scheduler) pickArm() int {
	if s.rng.Intn(8) == 0 {
		return s.rng.Intn(2)
	}
	r0 := (s.arms[armRandom].yield + 1) / (s.arms[armRandom].pulls + 1)
	r1 := (s.arms[armMutate].yield + 1) / (s.arms[armMutate].pulls + 1)
	if r1 > r0 {
		return armMutate
	}
	return armRandom
}

// balanced draws one field value by power-of-two-choices: two uniform
// candidates, keep the one this campaign has evaluated less often. The
// field visit counts come from the scheduler's own draws, so the
// exploration arm spreads itself across the parameter space instead of
// coupon-collecting it — same marginal range as a uniform draw, far fewer
// collisions on the nearly-exhausted values.
func (s *Scheduler) balanced(field string, lo, hi int) int {
	a := lo + s.rng.Intn(hi-lo+1)
	b := lo + s.rng.Intn(hi-lo+1)
	m := s.visits[field]
	if m == nil {
		m = make(map[int]int)
		s.visits[field] = m
	}
	if m[b] < m[a] {
		a = b
	}
	m[a]++
	s.pendingVisits = append(s.pendingVisits, fieldVisit{field: field, val: a})
	return a
}

// spread is the exploration arm's generator: every field drawn balanced
// over its post-Normalize working range, the seed fully random.
func (s *Scheduler) spread() leakcheck.Params {
	kinds := leakcheck.Kinds()
	return leakcheck.Params{
		Seed:           s.rng.Int63(),
		Kind:           kinds[s.balanced("kind", 0, len(kinds)-1)],
		Rounds:         s.balanced("rounds", leakcheck.MinRounds, leakcheck.MaxRounds),
		ShadowDepth:    s.balanced("depth", 0, leakcheck.MaxShadowDepth),
		ChainLen:       s.balanced("chain", 0, leakcheck.MaxChainLen),
		TrainLoops:     s.balanced("train", 0, leakcheck.MaxTrainLoops),
		DoubleTransmit: s.balanced("double", 0, 1) == 1,
		Prime:          s.balanced("prime", 0, 1) == 1,
		AliasTrainings: s.balanced("alias", 0, leakcheck.MaxAliasTrainings),
		AliasPad:       s.balanced("pad", 0, leakcheck.MaxAliasPad),
		PressureWidth:  s.balanced("width", 0, leakcheck.MaxPressureWidth),
		SecretBit:      s.balanced("bit", 0, 7),
		SecretA:        uint8(s.rng.Intn(256)),
		SecretB:        uint8(s.rng.Intn(256)),
	}.Normalize()
}

// Next produces the next genome to evaluate and remembers which arm it
// came from, so the Add feedback can credit that arm's yield.
func (s *Scheduler) Next() leakcheck.Params {
	arm := armMutate
	if s.Len() == 0 {
		arm = armRandom
	} else {
		arm = s.pickArm()
	}
	s.pendingVisits = s.pendingVisits[:0]
	parent, decremented := -1, false
	var p leakcheck.Params
	if arm == armRandom {
		p = s.spread()
	} else {
		parent, decremented = s.pick()
		p = Mutate(s.inputs[parent].params, s.rng)
	}
	key := p.String()
	s.armOf[key] = arm
	s.draws[key] = drawRecord{
		parent:      parent,
		decremented: decremented,
		visits:      append([]fieldVisit(nil), s.pendingVisits...),
	}
	return p
}
