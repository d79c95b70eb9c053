package mem

import "fmt"

// This file defines the serializable snapshot of the memory hierarchy, used
// by the checkpoint subsystem. The image is exact: every way of every set
// (valid or not; a never-filled set as zero ways) with its raw LRU
// timestamp, the per-cache recency clocks, the live MSHR file, and all
// traffic counters including the MSHR timeline digest. Timestamps are
// absolute cycle numbers; they stay meaningful because the core's cycle
// counter is restored alongside.

// LineState is one cache way.
type LineState struct {
	Tag     uint64 `json:"tag"`
	Valid   bool   `json:"valid,omitempty"`
	Dirty   bool   `json:"dirty,omitempty"`
	LastUse uint64 `json:"last_use,omitempty"`
	ReadyAt uint64 `json:"ready_at,omitempty"`
}

// CacheState is a complete snapshot of one cache level.
type CacheState struct {
	Config CacheConfig `json:"config"`
	// Lines is the full way array in row-major set order,
	// len = Sets()*Ways.
	Lines    []LineState        `json:"lines"`
	Clock    uint64             `json:"clock"`
	Accesses [numClasses]uint64 `json:"accesses"`
	Hits     [numClasses]uint64 `json:"hits"`
	Misses   [numClasses]uint64 `json:"misses"`
	// Rng is the random-replacement victim-choice stream state. Omitted
	// (and restored to the fixed seed) for LRU caches, so pre-existing
	// checkpoint digests are unchanged.
	Rng uint64 `json:"rng,omitempty"`
}

// State captures the cache.
func (c *Cache) State() *CacheState {
	st := &CacheState{
		Config:   c.cfg,
		Lines:    make([]LineState, c.cfg.Sets()*c.ways),
		Clock:    c.clock,
		Accesses: c.Accesses,
		Hits:     c.Hits,
		Misses:   c.Misses,
	}
	if c.cfg.RandomReplacement {
		st.Rng = c.rng
	}
	c.eachOccupiedSet(func(set int, ways []line) {
		out := st.Lines[set*c.ways:]
		for w, l := range ways {
			out[w] = LineState{
				Tag: l.tag, Valid: l.valid, Dirty: l.dirty,
				LastUse: l.lastUse, ReadyAt: l.readyAt,
			}
		}
	})
	return st
}

// Restore overwrites the cache with a captured state. The state must have
// been captured under an identical configuration. A never-filled chunk is
// allocated, and a set marked occupied, only if the state holds a non-zero
// line in it.
func (c *Cache) Restore(st *CacheState) error {
	if st.Config != c.cfg {
		return fmt.Errorf("cache: checkpoint config %+v does not match this core's %+v", st.Config, c.cfg)
	}
	if want := c.cfg.Sets() * c.cfg.Ways; len(st.Lines) != want {
		return fmt.Errorf("cache: checkpoint has %d lines, cache holds %d", len(st.Lines), want)
	}
	for set := 0; set*c.ways < len(st.Lines); set++ {
		src := st.Lines[set*c.ways : (set+1)*c.ways]
		dst := c.setWays(uint64(set))
		if !allZero(src) {
			if dst == nil {
				dst = c.fillChunk(uint64(set))
			}
			c.occupy(uint64(set))
		} else if dst == nil {
			continue
		}
		for w, l := range src {
			dst[w] = line{
				tag: l.Tag, valid: l.Valid, dirty: l.Dirty,
				lastUse: l.LastUse, readyAt: l.ReadyAt,
			}
		}
	}
	c.clock = st.Clock
	c.Accesses = st.Accesses
	c.Hits = st.Hits
	c.Misses = st.Misses
	if st.Rng != 0 {
		c.rng = st.Rng
	}
	return nil
}

// allZero reports whether every line is the zero LineState, the image of a
// never-filled set.
func allZero(ls []LineState) bool {
	for _, l := range ls {
		if l != (LineState{}) {
			return false
		}
	}
	return true
}

// MSHRState is one outstanding L1 miss.
type MSHRState struct {
	LineAddr uint64 `json:"line_addr"`
	DoneAt   uint64 `json:"done_at"`
	Prefetch bool   `json:"prefetch,omitempty"`
}

// HierarchyState is a complete snapshot of the memory system.
type HierarchyState struct {
	Config       HierarchyConfig `json:"config"`
	L1D          *CacheState     `json:"l1d"`
	L2           *CacheState     `json:"l2"`
	L3           *CacheState     `json:"l3"`
	MSHRs        []MSHRState     `json:"mshrs"`
	NextExpire   uint64          `json:"next_expire"`
	DRAMAccesses uint64          `json:"dram_accesses"`
	DRAMWrites   uint64          `json:"dram_writes"`
	Writebacks   [3]uint64       `json:"writebacks"`
	RejectedMSHR uint64          `json:"rejected_mshr"`
	MSHRSig      uint64          `json:"mshr_sig"`
}

// State captures the hierarchy.
func (h *Hierarchy) State() *HierarchyState {
	st := &HierarchyState{
		Config:       h.cfg,
		L1D:          h.L1D.State(),
		L2:           h.L2.State(),
		L3:           h.L3.State(),
		MSHRs:        make([]MSHRState, len(h.mshrs)),
		NextExpire:   h.nextExpire,
		DRAMAccesses: h.DRAMAccesses,
		DRAMWrites:   h.DRAMWrites,
		Writebacks:   h.Writebacks,
		RejectedMSHR: h.RejectedMSHR,
		MSHRSig:      h.mshrSig,
	}
	for i, m := range h.mshrs {
		st.MSHRs[i] = MSHRState{LineAddr: m.lineAddr, DoneAt: m.doneAt, Prefetch: m.prefetch}
	}
	return st
}

// Restore overwrites the hierarchy with a captured state. The state must
// have been captured under an identical configuration.
func (h *Hierarchy) Restore(st *HierarchyState) error {
	if st.Config != h.cfg {
		return fmt.Errorf("hierarchy: checkpoint config %+v does not match this core's %+v", st.Config, h.cfg)
	}
	if st.L1D == nil || st.L2 == nil || st.L3 == nil {
		return fmt.Errorf("hierarchy: checkpoint is missing a cache level")
	}
	if err := h.L1D.Restore(st.L1D); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := h.L2.Restore(st.L2); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if err := h.L3.Restore(st.L3); err != nil {
		return fmt.Errorf("L3: %w", err)
	}
	h.mshrs = h.mshrs[:0]
	h.demand = 0
	for _, m := range st.MSHRs {
		h.mshrs = append(h.mshrs, mshr{lineAddr: m.LineAddr, doneAt: m.DoneAt, prefetch: m.Prefetch})
		if !m.Prefetch {
			h.demand++
		}
	}
	h.nextExpire = st.NextExpire
	h.DRAMAccesses = st.DRAMAccesses
	h.DRAMWrites = st.DRAMWrites
	h.Writebacks = st.Writebacks
	h.RejectedMSHR = st.RejectedMSHR
	h.mshrSig = st.MSHRSig
	return nil
}
