package campaign

import (
	"math/rand"

	"doppelganger/internal/leakcheck"
)

// Mutate derives a child gadget genome from a parent. A stacked number of
// typed mutation operators (1, 2, or 4) is applied (AFL's havoc in
// miniature — occasional heavy stacks escape the parent's basin), then the
// result is normalized so any combination is buildable. Operators cover
// every Params field — including the kind flips that are the only road
// into the families Generate's frozen seed stream never samples.
func Mutate(p leakcheck.Params, rng *rand.Rand) leakcheck.Params {
	kinds := leakcheck.Kinds()
	ops := []func(*leakcheck.Params){
		func(q *leakcheck.Params) { q.Kind = kinds[rng.Intn(len(kinds))] },
		func(q *leakcheck.Params) { q.Seed = rng.Int63() },
		func(q *leakcheck.Params) { q.Seed += int64(rng.Intn(7)) - 3 },
		func(q *leakcheck.Params) { q.Rounds += rng.Intn(9) - 4 },
		func(q *leakcheck.Params) { q.ShadowDepth += rng.Intn(3) - 1 },
		func(q *leakcheck.Params) { q.ChainLen += rng.Intn(5) - 2 },
		func(q *leakcheck.Params) { q.TrainLoops += rng.Intn(3) - 1 },
		func(q *leakcheck.Params) { q.DoubleTransmit = !q.DoubleTransmit },
		func(q *leakcheck.Params) { q.Prime = !q.Prime },
		func(q *leakcheck.Params) { q.AliasTrainings += rng.Intn(3) - 1 },
		func(q *leakcheck.Params) { q.AliasPad += rng.Intn(9) - 4 },
		func(q *leakcheck.Params) { q.PressureWidth += rng.Intn(5) - 2 },
		func(q *leakcheck.Params) { q.SecretBit = rng.Intn(8) },
		func(q *leakcheck.Params) { q.SecretA = uint8(rng.Intn(256)) },
		func(q *leakcheck.Params) { q.SecretB = uint8(rng.Intn(256)) },
		func(q *leakcheck.Params) { q.SecretA ^= 1 << uint(rng.Intn(8)) },
		func(q *leakcheck.Params) { q.SecretB ^= 1 << uint(rng.Intn(8)) },
		// Doubling and halving cross the log-bucket boundaries the counter
		// cells are keyed on; the small deltas above usually cannot.
		func(q *leakcheck.Params) { q.Rounds *= 2 },
		func(q *leakcheck.Params) { q.Rounds /= 2 },
		func(q *leakcheck.Params) { q.ChainLen *= 2 },
		func(q *leakcheck.Params) { q.ChainLen /= 2 },
		func(q *leakcheck.Params) { q.ShadowDepth *= 2 },
		func(q *leakcheck.Params) { q.AliasPad *= 2 },
	}
	n := 1 << rng.Intn(3)
	for i := 0; i < n; i++ {
		ops[rng.Intn(len(ops))](&p)
	}
	return p.Normalize()
}
