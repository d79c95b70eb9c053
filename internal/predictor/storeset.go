package predictor

import "fmt"

// StoreSetsConfig sizes the memory-dependence predictor (a simplified
// Chrysos/Emer store-set predictor, the mechanism the paper assumes when
// discussing store-to-load forwarding as an implicit channel, §4.4).
type StoreSetsConfig struct {
	// Entries bounds the PC-to-set table; must be a power of two.
	Entries int
}

// DefaultStoreSetsConfig returns a 2048-entry table.
func DefaultStoreSetsConfig() StoreSetsConfig { return StoreSetsConfig{Entries: 2048} }

// Validate reports configuration errors.
func (c StoreSetsConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("store sets: entries %d not a power of two", c.Entries)
	}
	return nil
}

type ssEntry struct {
	pc    uint64 // full tag
	valid bool
	set   uint32
}

// StoreSets learns which (load PC, store PC) pairs alias: after a
// memory-order violation the pair is merged into a common store set, and
// the core then makes future instances of that load wait for unresolved
// older stores in the same set instead of speculating past them.
//
// Training happens at violation detection, which every scheme already
// gates on safe (shadow-resolved) store addresses; predictions are
// read-only lookups.
type StoreSets struct {
	cfg     StoreSetsConfig
	table   []ssEntry
	mask    uint64
	nextSet uint32

	// Assignments counts violation-driven merges.
	Assignments uint64
}

// NewStoreSets builds the predictor; invalid configuration panics.
func NewStoreSets(cfg StoreSetsConfig) *StoreSets {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &StoreSets{
		cfg:   cfg,
		table: make([]ssEntry, cfg.Entries),
		mask:  uint64(cfg.Entries - 1),
	}
}

// Config returns the predictor configuration.
func (s *StoreSets) Config() StoreSetsConfig { return s.cfg }

// Reset returns the predictor to the state NewStoreSets builds.
func (s *StoreSets) Reset() {
	clear(s.table)
	s.nextSet = 0
	s.Assignments = 0
}

func (s *StoreSets) slot(pc uint64) *ssEntry {
	e := &s.table[pc&s.mask]
	if e.valid && e.pc == pc {
		return e
	}
	return nil
}

// Lookup returns the store set of pc, if any.
func (s *StoreSets) Lookup(pc uint64) (uint32, bool) {
	if e := s.slot(pc); e != nil {
		return e.set, true
	}
	return 0, false
}

// Assign merges the load and store PCs into one store set after a
// violation. If either already belongs to a set, the other joins it
// (the classic store-set merge rule, simplified to adopt the load's set).
func (s *StoreSets) Assign(loadPC, storePC uint64) {
	s.Assignments++
	le := &s.table[loadPC&s.mask]
	se := &s.table[storePC&s.mask]
	switch {
	case le.valid && le.pc == loadPC:
		*se = ssEntry{pc: storePC, valid: true, set: le.set}
	case se.valid && se.pc == storePC:
		*le = ssEntry{pc: loadPC, valid: true, set: se.set}
	default:
		s.nextSet++
		*le = ssEntry{pc: loadPC, valid: true, set: s.nextSet}
		*se = ssEntry{pc: storePC, valid: true, set: s.nextSet}
	}
}

// SameSet reports whether the load and store PCs are known to alias.
func (s *StoreSets) SameSet(loadPC, storePC uint64) bool {
	le := s.slot(loadPC)
	if le == nil {
		return false
	}
	se := s.slot(storePC)
	return se != nil && se.set == le.set
}
