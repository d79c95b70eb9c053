package pipeline

import "doppelganger/internal/isa"

// The committed memory image is paged: a word-aligned byte address selects a
// 4 KiB page (512 words) by its upper bits. Pages are sparse — workloads
// touch a handful of regions — and a one-entry page cache makes the common
// same-page access a couple of shifts instead of a map lookup.
const (
	pageWords = 512
	pageShift = 12 // log2(pageWords * program.WordSize)
	wordShift = 3  // log2(program.WordSize)
)

// memPage holds one page of words plus a presence bitmap. The bitmap
// distinguishes a stored zero from a never-written word, so the exact
// key set of the old map representation can be reconstructed for
// architectural-state comparison.
type memPage struct {
	words   [pageWords]int64
	present [pageWords / 64]uint64
}

// memImage is the committed architectural memory: the replacement for a
// map[uint64]int64 keyed by aligned addresses, with allocation-free loads
// and stores on the pipeline's per-cycle path.
type memImage struct {
	pages map[uint64]*memPage
	// One-entry cache of the last page touched.
	lastKey  uint64
	lastPage *memPage
	// slab is an arena new pages are carved from, so building the image
	// costs one allocation per slabPages pages instead of one per page.
	// free holds zeroed pages reset returned, taken before the slab.
	slab []memPage
	free []*memPage
}

// slabPages is the arena granularity (64 KiB per slab).
const slabPages = 16

func newMemImage() *memImage {
	return &memImage{pages: make(map[uint64]*memPage, 64)}
}

// reset empties the image, keeping its storage: every page is zeroed onto
// the free list.
func (m *memImage) reset() {
	for _, p := range m.pages {
		*p = memPage{}
		m.free = append(m.free, p)
	}
	clear(m.pages)
	m.lastKey, m.lastPage = 0, nil
}

// newPage maps a zeroed page at the key, from the free list or the slab.
func (m *memImage) newPage(key uint64) *memPage {
	var p *memPage
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		if len(m.slab) == 0 {
			m.slab = make([]memPage, slabPages)
		}
		p, m.slab = &m.slab[0], m.slab[1:]
	}
	m.pages[key] = p
	m.lastKey, m.lastPage = key, p
	return p
}

// page returns the page for the key, or nil when absent.
func (m *memImage) page(key uint64) *memPage {
	if m.lastPage != nil && m.lastKey == key {
		return m.lastPage
	}
	p := m.pages[key]
	if p != nil {
		m.lastKey, m.lastPage = key, p
	}
	return p
}

// load returns the word at the aligned address; never-written words read as
// zero, matching zero-initialised memory.
func (m *memImage) load(addr uint64) int64 {
	p := m.page(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p.words[(addr>>wordShift)&(pageWords-1)]
}

// store writes the word at the aligned address, marking it present.
func (m *memImage) store(addr uint64, v int64) {
	key := addr >> pageShift
	p := m.page(key)
	if p == nil {
		p = m.newPage(key)
	}
	wi := (addr >> wordShift) & (pageWords - 1)
	p.present[wi>>6] |= 1 << (wi & 63)
	p.words[wi] = v
}

// toMap reconstructs the memory image as an address→value map with exactly
// the key set the map representation would have had (stored zeros included).
func (m *memImage) toMap() map[uint64]int64 {
	out := make(map[uint64]int64)
	for key, p := range m.pages {
		base := key << pageShift
		for wi := uint64(0); wi < pageWords; wi++ {
			if p.present[wi>>6]&(1<<(wi&63)) != 0 {
				out[base|wi<<wordShift] = p.words[wi]
			}
		}
	}
	return out
}

// Checksum digests the committed architectural state (registers and memory),
// producing the same value as ArchState().Checksum() without materialising
// the memory map. The memory term is commutative and skips zero values —
// exactly the reference digest's rules, which make page iteration order and
// present-but-zero words irrelevant.
func (c *Core) Checksum() uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
		return h
	}
	h := uint64(offset)
	for r := 0; r < isa.NumRegs; r++ {
		h = mix(h, uint64(r))
		h = mix(h, uint64(c.regVal[c.renameMap[r]]))
	}
	var memSum uint64
	for key, p := range c.backing.pages {
		base := key << pageShift
		for wi, v := range p.words {
			if v != 0 {
				memSum += mix(mix(offset, base|uint64(wi)<<wordShift), uint64(v))
			}
		}
	}
	return mix(h, memSum)
}
