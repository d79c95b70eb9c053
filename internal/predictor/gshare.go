package predictor

import "fmt"

// GShareConfig sizes a gshare direction predictor.
type GShareConfig struct {
	Entries     int // 2-bit counters; must be a power of two
	HistoryBits int // global history length (<= 32)
}

// DefaultGShareConfig returns a 4096-counter, 12-bit-history gshare.
func DefaultGShareConfig() GShareConfig { return GShareConfig{Entries: 4096, HistoryBits: 12} }

// Validate reports configuration errors.
func (c GShareConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("gshare: entries %d not a power of two", c.Entries)
	}
	if c.HistoryBits <= 0 || c.HistoryBits > 32 {
		return fmt.Errorf("gshare: history bits %d out of range", c.HistoryBits)
	}
	return nil
}

// GShare is a global-history direction predictor. Unlike Bimodal it is
// history-sensitive, so the core must supply the speculative global history
// at prediction time and the architectural history at training time — and
// repair its history register on squashes. See pipeline's gshare glue.
type GShare struct {
	cfg      GShareConfig
	counters []uint8
	mask     uint64
	histMask uint64
}

// NewGShare builds the predictor; invalid configuration panics.
func NewGShare(cfg GShareConfig) *GShare {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &GShare{
		cfg:      cfg,
		counters: make([]uint8, cfg.Entries),
		mask:     uint64(cfg.Entries - 1),
		histMask: (1 << uint(cfg.HistoryBits)) - 1,
	}
	g.Reset()
	return g
}

// Config returns the predictor configuration.
func (g *GShare) Config() GShareConfig { return g.cfg }

// Reset returns the predictor to the state NewGShare builds.
func (g *GShare) Reset() {
	for i := range g.counters {
		g.counters[i] = 2 // weakly taken
	}
}

func (g *GShare) index(pc, hist uint64) uint64 {
	return (pc ^ (hist & g.histMask)) & g.mask
}

// PredictWithHistory returns the predicted direction for pc under the given
// (speculative) global history.
func (g *GShare) PredictWithHistory(pc, hist uint64) bool {
	return g.counters[g.index(pc, hist)] >= 2
}

// TrainWithHistory updates the counter selected by (pc, hist) with the
// committed outcome.
func (g *GShare) TrainWithHistory(pc, hist uint64, taken bool) {
	c := &g.counters[g.index(pc, hist)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// HistoryMask exposes the history length for the core's shift register.
func (g *GShare) HistoryMask() uint64 { return g.histMask }

// Snapshot fingerprints the counter table, for the leakage tests that prove
// committed-only training keeps the predictor free of secret-dependent
// state.
func (g *GShare) Snapshot() uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	for i, c := range g.counters {
		h ^= uint64(i)<<8 | uint64(c)
		h *= prime
	}
	return h
}
