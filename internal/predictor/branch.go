package predictor

import "fmt"

// BranchPredictor predicts conditional branch directions. Implementations
// are trained only on committed outcomes, which keeps predictor state free
// of speculative influence in every scheme (STT requires this; the other
// schemes simply benefit from the uniformity).
type BranchPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Train records the committed outcome of the branch at pc.
	Train(pc uint64, taken bool)
}

// BimodalConfig sizes a bimodal predictor.
type BimodalConfig struct {
	Entries int // number of 2-bit counters; must be a power of two
}

// DefaultBimodalConfig returns a 4096-counter bimodal predictor.
func DefaultBimodalConfig() BimodalConfig { return BimodalConfig{Entries: 4096} }

// Bimodal is a classic PC-indexed table of 2-bit saturating counters.
type Bimodal struct {
	counters []uint8
	mask     uint64

	// Predictions and Correct are bookkeeping for accuracy statistics
	// maintained by the caller via Train (Correct is updated by comparing
	// Predict's output to Train's outcome at the call sites).
	Predictions uint64
}

// NewBimodal builds the predictor; a non-power-of-two size panics.
func NewBimodal(cfg BimodalConfig) *Bimodal {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic(fmt.Sprintf("predictor: bimodal entries %d not a power of two", cfg.Entries))
	}
	b := &Bimodal{counters: make([]uint8, cfg.Entries), mask: uint64(cfg.Entries - 1)}
	b.Reset()
	return b
}

// Reset returns the predictor to the state NewBimodal builds.
func (b *Bimodal) Reset() {
	// Initialise to weakly taken: loop branches warm up faster.
	for i := range b.counters {
		b.counters[i] = 2
	}
	b.Predictions = 0
}

// Predict returns true if the branch at pc is predicted taken.
func (b *Bimodal) Predict(pc uint64) bool {
	b.Predictions++
	return b.counters[pc&b.mask] >= 2
}

// Train updates the 2-bit counter with a committed outcome.
func (b *Bimodal) Train(pc uint64, taken bool) {
	c := &b.counters[pc&b.mask]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Snapshot fingerprints the counter table, for the leakage tests that prove
// committed-only training keeps the predictor free of secret-dependent
// state.
func (b *Bimodal) Snapshot() uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	for i, c := range b.counters {
		h ^= uint64(i)<<8 | uint64(c)
		h *= prime
	}
	return h
}

// StaticTaken always predicts taken; useful in tests to force deterministic
// misprediction patterns.
type StaticTaken struct{}

// Predict always returns true.
func (StaticTaken) Predict(uint64) bool { return true }

// Train is a no-op.
func (StaticTaken) Train(uint64, bool) {}

// StaticNotTaken always predicts not-taken.
type StaticNotTaken struct{}

// Predict always returns false.
func (StaticNotTaken) Predict(uint64) bool { return false }

// Train is a no-op.
func (StaticNotTaken) Train(uint64, bool) {}
