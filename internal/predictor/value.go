package predictor

import "fmt"

// ValueConfig sizes the load value predictor used by the DoM+VP comparison
// (the paper's §2.3: Delay-on-Miss originally used value prediction, which
// under-performed because mispredictions squash and validation is
// in-order).
type ValueConfig struct {
	Entries int // total entries; must be a multiple of Ways
	Ways    int
	// ConfidenceThreshold gates predictions, exactly like the stride
	// table's.
	ConfidenceThreshold int
	MaxConfidence       int
}

// DefaultValueConfig matches the address predictor's capacity so the
// comparison is apples-to-apples.
func DefaultValueConfig() ValueConfig {
	return ValueConfig{Entries: 1024, Ways: 8, ConfidenceThreshold: 2, MaxConfidence: 7}
}

// Validate reports configuration errors.
func (c ValueConfig) Validate() error {
	sc := StrideConfig{Entries: c.Entries, Ways: c.Ways,
		ConfidenceThreshold: c.ConfidenceThreshold, MaxConfidence: c.MaxConfidence}
	if err := sc.Validate(); err != nil {
		return fmt.Errorf("value predictor: %w", err)
	}
	return nil
}

type valueEntry struct {
	pc         uint64 // full tag (aliasing between PCs would be a channel)
	valid      bool
	lastValue  int64
	stride     int64 // value stride: covers constants and counters
	confidence int
	lastUse    uint64
}

// Value is a stride-based load value predictor (a VTAGE-lite): it predicts
// the value of the occurrence-th in-flight instance of a load as
// lastValue + valueStride*occurrence. Like the address predictor it is
// trained strictly at commit and predictions are read-only.
type Value struct {
	cfg     ValueConfig
	sets    [][]valueEntry
	setMask uint64
	clock   uint64

	// Trainings counts Train calls.
	Trainings uint64
}

// NewValue builds the predictor; invalid configuration panics.
func NewValue(cfg ValueConfig) *Value {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Entries / cfg.Ways
	v := &Value{cfg: cfg, sets: make([][]valueEntry, nsets), setMask: uint64(nsets - 1)}
	backing := make([]valueEntry, cfg.Entries)
	for i := range v.sets {
		v.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return v
}

// Config returns the predictor configuration.
func (v *Value) Config() ValueConfig { return v.cfg }

// Reset returns the predictor to the state NewValue builds.
func (v *Value) Reset() {
	for _, set := range v.sets {
		clear(set)
	}
	v.clock = 0
	v.Trainings = 0
}

func (v *Value) find(pc uint64) *valueEntry {
	set := v.sets[pc&v.setMask]
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			return &set[i]
		}
	}
	return nil
}

// Train records a committed load's value. Only ever call at commit.
func (v *Value) Train(pc uint64, value int64) {
	v.Trainings++
	v.clock++
	e := v.find(pc)
	if e == nil {
		set := v.sets[pc&v.setMask]
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
		set[victim] = valueEntry{pc: pc, valid: true, lastValue: value, lastUse: v.clock}
		return
	}
	stride := value - e.lastValue
	switch {
	case stride == e.stride:
		if e.confidence < v.cfg.MaxConfidence {
			e.confidence++
		}
	case e.confidence > 0:
		e.confidence--
	default:
		e.stride = stride
	}
	e.lastValue = value
	e.lastUse = v.clock
}

// Predict returns the predicted value for the occurrence-th in-flight
// instance of pc, if the entry is confident. Read-only.
func (v *Value) Predict(pc uint64, occurrence int) (int64, bool) {
	if occurrence < 1 {
		return 0, false
	}
	e := v.find(pc)
	if e == nil || e.confidence < v.cfg.ConfidenceThreshold {
		return 0, false
	}
	return e.lastValue + e.stride*int64(occurrence), true
}
