package leakcheck

import (
	"context"

	"doppelganger/sim"
)

// Minimize greedily shrinks a leaking gadget's parameters while the leak
// persists under the same config, returning the smallest reproducer found.
// Each pass tries, per field: jumping straight to the minimum, then
// stepping down one at a time; boolean features are simply dropped. The
// chain is seed-prefix-stable (see chainOps), so reducing ChainLen keeps
// the surviving operations identical. Passes repeat until a fixpoint.
//
// Every check runs on one sim.Runner. An infrastructure error (context
// cancellation) aborts minimization and returns the best reproducer found
// so far alongside the error.
func Minimize(ctx context.Context, leak Leak) (Params, error) {
	p := leak.Params.Normalize()
	cfg := leak.Config

	var r sim.Runner
	var firstErr error
	leaks := func(q Params) bool {
		if firstErr != nil {
			return false
		}
		l, err := check(ctx, &r, q, cfg)
		if err != nil {
			firstErr = err
			return false
		}
		return l != nil
	}

	shrinkInt := func(get func(*Params) *int, min int) bool {
		changed := false
		if f := get(&p); *f > min {
			q := p
			*get(&q) = min
			if leaks(q) {
				p = q
				return true
			}
		}
		for *get(&p) > min {
			q := p
			*get(&q)--
			if !leaks(q) {
				break
			}
			p = q
			changed = true
		}
		return changed
	}

	for changed := true; changed && firstErr == nil; {
		changed = false
		if p.DoubleTransmit {
			q := p
			q.DoubleTransmit = false
			if leaks(q) {
				p = q
				changed = true
			}
		}
		if p.Prime {
			q := p
			q.Prime = false
			if leaks(q) {
				p = q
				changed = true
			}
		}
		if shrinkInt(func(q *Params) *int { return &q.ChainLen }, 0) {
			changed = true
		}
		if shrinkInt(func(q *Params) *int { return &q.TrainLoops }, 0) {
			changed = true
		}
		if shrinkInt(func(q *Params) *int { return &q.ShadowDepth }, 0) {
			changed = true
		}
		if shrinkInt(func(q *Params) *int { return &q.Rounds }, minRounds) {
			changed = true
		}
		// Kind-specific fields shrink toward the owning kind's floor; the
		// other kinds ignore them, so there they just tidy to zero.
		minAlias, minPress := 0, 0
		if p.Kind == KindBranchPoison {
			minAlias = minAliasTrainings
		}
		if p.Kind == KindContention {
			minPress = minPressureWidth
		}
		if shrinkInt(func(q *Params) *int { return &q.AliasPad }, 0) {
			changed = true
		}
		if shrinkInt(func(q *Params) *int { return &q.AliasTrainings }, minAlias) {
			changed = true
		}
		if shrinkInt(func(q *Params) *int { return &q.PressureWidth }, minPress) {
			changed = true
		}
		if shrinkInt(func(q *Params) *int { return &q.SecretBit }, 0) {
			changed = true
		}
	}
	return p, firstErr
}
