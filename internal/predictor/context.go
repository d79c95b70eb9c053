package predictor

import "fmt"

// ContextConfig sizes the first-order Markov (context) address predictor —
// the kind of "more advanced predictor" the paper leaves to future work
// (§9): it learns address-to-address transitions per load PC, covering
// pointer chains the stride table cannot.
type ContextConfig struct {
	Entries int // total transition entries; must be a multiple of Ways
	Ways    int
	// ConfidenceThreshold gates predictions.
	ConfidenceThreshold int
	MaxConfidence       int
	// MaxWalk bounds how many transitions a multi-occurrence prediction
	// may chain through the table.
	MaxWalk int
}

// DefaultContextConfig sizes the table at 4K transitions.
func DefaultContextConfig() ContextConfig {
	return ContextConfig{Entries: 4096, Ways: 4, ConfidenceThreshold: 1, MaxConfidence: 3, MaxWalk: 256}
}

// Validate reports configuration errors.
func (c ContextConfig) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("context predictor: entries %d must be a positive multiple of ways %d",
			c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("context predictor: set count %d is not a power of two", sets)
	}
	if c.ConfidenceThreshold <= 0 || c.MaxConfidence < c.ConfidenceThreshold || c.MaxWalk <= 0 {
		return fmt.Errorf("context predictor: bad bounds")
	}
	return nil
}

type contextEntry struct {
	key        uint64 // full (pc, fromAddr) key to prevent aliasing
	valid      bool
	toAddr     uint64
	confidence int
	lastUse    uint64
}

// Context predicts the next address of a load from its previous address:
// a per-PC first-order Markov table. Trained strictly at commit; read-only
// predictions, full-key tags — the same security discipline as the stride
// table.
type Context struct {
	cfg     ContextConfig
	sets    [][]contextEntry
	setMask uint64
	clock   uint64

	// last committed address per PC (the prediction starting point),
	// keyed by full PC.
	last map[uint64]uint64

	// Trainings counts Train calls.
	Trainings uint64
}

// NewContext builds the predictor; invalid configuration panics.
func NewContext(cfg ContextConfig) *Context {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Entries / cfg.Ways
	c := &Context{
		cfg:     cfg,
		sets:    make([][]contextEntry, nsets),
		setMask: uint64(nsets - 1),
		last:    make(map[uint64]uint64),
	}
	backing := make([]contextEntry, cfg.Entries)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return c
}

// Config returns the predictor configuration.
func (c *Context) Config() ContextConfig { return c.cfg }

// Reset returns the predictor to the state NewContext builds.
func (c *Context) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock = 0
	clear(c.last)
	c.Trainings = 0
}

// key mixes (pc, from) into a well-distributed 64-bit tag (splitmix64
// finalizer). Line-aligned addresses have empty low bits, so a weak mix
// would concentrate entries into a handful of sets.
func key(pc, from uint64) uint64 {
	x := pc ^ (from * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c *Context) find(k uint64) *contextEntry {
	set := c.sets[k&c.setMask]
	for i := range set {
		if set[i].valid && set[i].key == k {
			return &set[i]
		}
	}
	return nil
}

// Train records a committed transition: the load at pc followed its
// previous committed address with addr. Only ever call at commit.
func (c *Context) Train(pc, addr uint64) {
	c.Trainings++
	c.clock++
	prev, seen := c.last[pc]
	c.last[pc] = addr
	if !seen {
		return
	}
	k := key(pc, prev)
	e := c.find(k)
	if e == nil {
		set := c.sets[k&c.setMask]
		victim := 0
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		set[victim] = contextEntry{key: k, valid: true, toAddr: addr, confidence: 1, lastUse: c.clock}
		return
	}
	if e.toAddr == addr {
		if e.confidence < c.cfg.MaxConfidence {
			e.confidence++
		}
	} else {
		e.confidence--
		if e.confidence <= 0 {
			e.toAddr = addr
			e.confidence = 1
		}
	}
	e.lastUse = c.clock
}

// Predict walks occurrence transitions forward from the last committed
// address of pc. Every step must be a confident transition. Read-only.
func (c *Context) Predict(pc uint64, occurrence int) (uint64, bool) {
	if occurrence < 1 || occurrence > c.cfg.MaxWalk {
		return 0, false
	}
	cur, ok := c.last[pc]
	if !ok {
		return 0, false
	}
	for i := 0; i < occurrence; i++ {
		e := c.find(key(pc, cur))
		if e == nil || e.confidence < c.cfg.ConfidenceThreshold {
			return 0, false
		}
		cur = e.toAddr
	}
	return cur, true
}

// Snapshot fingerprints the table and per-PC state, for the security tests
// that prove speculation cannot influence predictor state.
func (c *Context) Snapshot() uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for si, set := range c.sets {
		for _, e := range set {
			if !e.valid {
				continue
			}
			mix(uint64(si))
			mix(e.key)
			mix(e.toAddr)
			mix(uint64(e.confidence))
		}
	}
	// The per-PC last map is summed commutatively (iteration order varies).
	var sum uint64
	for pc, a := range c.last {
		x := uint64(1469598103934665603)
		x ^= pc
		x *= prime
		x ^= a
		x *= prime
		sum += x
	}
	mix(sum)
	return h
}
