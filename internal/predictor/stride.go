// Package predictor implements the prediction structures used by the core:
// the PC-indexed stride table that serves simultaneously as a conventional
// prefetcher ("prefetching mode") and as the doppelganger address predictor
// ("address prediction mode"), and a bimodal branch direction predictor.
//
// Security requirement (paper §5): the stride table is trained strictly on
// committed, non-speculative load addresses, uses full PC tags to prevent
// aliasing, and predictions never update predictor state. All of that is
// enforced here: Predict is read-only and Train is the only mutator.
package predictor

import "fmt"

// StrideConfig sizes the shared prefetcher / address predictor table.
// The paper's configuration (Table 1) is 1024 entries, 8-way set
// associative, full PC tags (~13.5 KiB of storage).
type StrideConfig struct {
	Entries int // total entries; must be a multiple of Ways
	Ways    int // set associativity
	// ConfidenceThreshold is the training confirmations required before
	// the entry produces predictions.
	ConfidenceThreshold int
	// MaxConfidence saturates the confidence counter.
	MaxConfidence int
}

// DefaultStrideConfig returns the paper's predictor configuration.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{Entries: 1024, Ways: 8, ConfidenceThreshold: 2, MaxConfidence: 7}
}

// Validate reports configuration errors.
func (c StrideConfig) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("predictor: entries %d must be a positive multiple of ways %d", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("predictor: set count %d is not a power of two", sets)
	}
	if c.ConfidenceThreshold <= 0 || c.MaxConfidence < c.ConfidenceThreshold {
		return fmt.Errorf("predictor: bad confidence bounds %d/%d", c.ConfidenceThreshold, c.MaxConfidence)
	}
	return nil
}

type strideEntry struct {
	pc         uint64 // full tag
	valid      bool
	lastAddr   uint64
	stride     int64
	confidence int
	lastUse    uint64
}

// Stride is the shared stride table. The zero value is not usable; call
// NewStride.
type Stride struct {
	cfg     StrideConfig
	sets    [][]strideEntry
	setMask uint64
	clock   uint64

	// Trainings counts Train calls; Allocations counts new-entry fills.
	Trainings   uint64
	Allocations uint64
}

// NewStride builds the table; invalid configuration panics (setup error).
func NewStride(cfg StrideConfig) *Stride {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Entries / cfg.Ways
	s := &Stride{cfg: cfg, sets: make([][]strideEntry, nsets), setMask: uint64(nsets - 1)}
	backing := make([]strideEntry, cfg.Entries)
	for i := range s.sets {
		s.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return s
}

// Config returns the table configuration.
func (s *Stride) Config() StrideConfig { return s.cfg }

// Reset returns the table to the state NewStride builds.
func (s *Stride) Reset() {
	for _, set := range s.sets {
		clear(set)
	}
	s.clock = 0
	s.Trainings = 0
	s.Allocations = 0
}

func (s *Stride) find(pc uint64) *strideEntry {
	set := s.sets[pc&s.setMask]
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			return &set[i]
		}
	}
	return nil
}

// Train updates the table with a committed (non-speculative) load: the load
// at pc accessed addr. This is the only mutating operation; it must only be
// called at commit, never with speculative addresses.
func (s *Stride) Train(pc, addr uint64) {
	s.Trainings++
	s.clock++
	e := s.find(pc)
	if e == nil {
		e = s.victim(pc)
		*e = strideEntry{pc: pc, valid: true, lastAddr: addr, lastUse: s.clock}
		s.Allocations++
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	switch {
	case stride == e.stride:
		if e.confidence < s.cfg.MaxConfidence {
			e.confidence++
		}
	case e.confidence > 0:
		// One-off disruption: lose confidence but keep the stride
		// hypothesis so a single irregular access does not destroy a
		// well-established stream.
		e.confidence--
	default:
		e.stride = stride
	}
	e.lastAddr = addr
	e.lastUse = s.clock
}

// victim selects the replacement entry in pc's set: an invalid way if one
// exists, otherwise the least recently used.
func (s *Stride) victim(pc uint64) *strideEntry {
	set := s.sets[pc&s.setMask]
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	v := 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[v].lastUse {
			v = i
		}
	}
	return &set[v]
}

// Predict runs in address-prediction mode: it predicts the address of the
// occurrence-th dynamic instance of the load at pc following the last
// committed one (occurrence >= 1 counts in-flight instances of the same PC,
// including the one being predicted). It is read-only.
func (s *Stride) Predict(pc uint64, occurrence int) (addr uint64, ok bool) {
	if occurrence < 1 {
		return 0, false
	}
	e := s.find(pc)
	if e == nil || e.confidence < s.cfg.ConfidenceThreshold {
		return 0, false
	}
	return uint64(int64(e.lastAddr) + e.stride*int64(occurrence)), true
}

// PrefetchTargets runs in prefetching mode: given the resolved access at
// (pc, addr), it returns up to degree future stride addresses to prefetch,
// starting distance strides ahead. Zero strides produce no targets. It is
// read-only; call Train separately (and only with committed addresses).
func (s *Stride) PrefetchTargets(pc, addr uint64, distance, degree int, buf []uint64) []uint64 {
	e := s.find(pc)
	if e == nil || e.confidence < s.cfg.ConfidenceThreshold || e.stride == 0 {
		return buf[:0]
	}
	buf = buf[:0]
	for d := 0; d < degree; d++ {
		buf = append(buf, uint64(int64(addr)+e.stride*int64(distance+d)))
	}
	return buf
}

// Lookup exposes the entry state for a PC (for tests and introspection):
// the last trained address, stride, confidence, and presence.
func (s *Stride) Lookup(pc uint64) (lastAddr uint64, stride int64, confidence int, ok bool) {
	e := s.find(pc)
	if e == nil {
		return 0, 0, 0, false
	}
	return e.lastAddr, e.stride, e.confidence, true
}

// Snapshot returns a deterministic fingerprint of the whole table state,
// used by security tests to prove that speculative execution cannot
// influence the predictor.
func (s *Stride) Snapshot() uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for si, set := range s.sets {
		for _, e := range set {
			if !e.valid {
				continue
			}
			mix(uint64(si))
			mix(e.pc)
			mix(e.lastAddr)
			mix(uint64(e.stride))
			mix(uint64(e.confidence))
		}
	}
	return h
}
