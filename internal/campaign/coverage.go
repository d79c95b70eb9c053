// Package campaign is the coverage-guided leak-hunting layer over
// internal/leakcheck. A blind sweep samples gadget parameters uniformly; a
// campaign instead treats each differential pair as a fuzzing input, maps
// every evaluation onto micro-architectural coverage cells (where in the
// machine the pair put pressure: shadow depths, cache sets, MSHR/DRAM
// traffic bins, predictor deltas, per-clause contract outcomes), and feeds
// an AFL-style power-schedule mutator that spends its budget on the inputs
// that keep finding new cells. Leaks are minimized, deduplicated by their
// minimized reproducer, and persisted — together with the coverage-bearing
// inputs — in an on-disk corpus a later invocation resumes from.
package campaign

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"doppelganger/internal/leakcheck"
	"doppelganger/sim"
)

// Map is the campaign's coverage map: a set of cells, each naming one
// observed micro-architectural behaviour bucket. Cells are opaque 64-bit
// ids (FNV-1a over a typed feature encoding); the map only ever grows.
type Map struct {
	cells map[uint64]uint64 // cell id -> times hit
}

// NewMap returns an empty coverage map.
func NewMap() *Map { return &Map{cells: make(map[uint64]uint64)} }

// Add records the cells of one evaluation and returns how many were new.
func (m *Map) Add(cells []uint64) int {
	fresh := 0
	for _, c := range cells {
		if m.cells[c] == 0 {
			fresh++
		}
		m.cells[c]++
	}
	return fresh
}

// Count returns the number of distinct cells ever observed.
func (m *Map) Count() int { return len(m.cells) }

// Cells returns the distinct cell ids in ascending order (for tests and
// reports; the order is deterministic, not meaningful).
func (m *Map) Cells() []uint64 {
	out := make([]uint64, 0, len(m.cells))
	for c := range m.cells {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cell hashes a typed feature into a cell id. The tag keeps feature spaces
// disjoint; the config name keeps the same behaviour under different
// schemes distinct (a DoM-delayed miss and an unsafe miss are different
// discoveries).
func cell(tag string, cfg string, vals ...uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	h.Write([]byte{0})
	h.Write([]byte(cfg))
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// logBucket compresses a counter into its bit length (0, 1, 2, 4-7, 8-15,
// ...), so "more of the same pressure" is one cell but an order of
// magnitude more is a new one.
func logBucket(v uint64) uint64 { return uint64(bits.Len64(v)) }

// PairEval is everything one differential-pair evaluation under one config
// produced; Cells projects it onto the coverage map.
type PairEval struct {
	Params leakcheck.Params
	Config leakcheck.Config
	ResA   sim.Result
	ResB   sim.Result
	ObsA   sim.Observation
	ObsB   sim.Observation
	// Leak is leakcheck.PairLeak's verdict on ObsA and ObsB; nil when the
	// pair is indistinguishable.
	Leak *leakcheck.Leak
}

// Cells maps the evaluation onto coverage cells:
//
//   - the gadget family exercised,
//   - speculation-shadow pressure (peak and cast-count buckets),
//   - squash/mispredict/memory-order activity buckets,
//   - per-level miss, DRAM and writeback traffic buckets,
//   - scheme-mechanism activity (DoM delayed misses, STT taint stalls,
//     doppelganger issues) buckets,
//   - the occupied-set bitmap of every cache level (which sets of the
//     hierarchy the run left state in),
//   - which predictor tables ended the pair in differing states,
//   - the per-clause contract outcome of the pair.
//
// Everything is computed from run A except the explicit A/B deltas: run B
// differs only in the secret byte, so its solo features are (on a secure
// scheme) identical by construction.
func (e *PairEval) Cells() []uint64 {
	cfg := e.Config.String()
	st := e.ResA.Stats
	ms := e.ResA.Memory
	out := []uint64{
		cell("kind", "", uint64(e.Params.Kind)),
		cell("kind-cfg", cfg, uint64(e.Params.Kind)),
		cell("shadow-peak", cfg, st.ShadowPeak),
		cell("shadows-cast", cfg, logBucket(st.ShadowsCast)),
		cell("squashed", cfg, logBucket(st.Squashed)),
		cell("mispredicts", cfg, logBucket(st.BranchMispredicts)),
		cell("mem-order", cfg, logBucket(st.MemOrderViolations)),
		cell("l1-miss", cfg, logBucket(ms.L1Misses)),
		cell("l2-miss", cfg, logBucket(ms.L2Misses)),
		cell("l3-miss", cfg, logBucket(ms.L3Misses)),
		cell("dram", cfg, logBucket(ms.DRAMAccesses)),
		cell("writebacks", cfg, logBucket(ms.WritebacksL1+ms.WritebacksL2+ms.WritebacksL3)),
		cell("dom-delayed", cfg, logBucket(st.DoMDelayedMisses)),
		cell("stt-stalls", cfg, logBucket(st.STTTaintStalls)),
		cell("dopp-issued", cfg, logBucket(st.DoppIssued)),
		cell("stlf", cfg, logBucket(st.STLFForwards)),
		// Exact-count features. Unlike the log buckets these vary smoothly
		// with the gadget parameters (one more round, one more shadow), so
		// stepping a parameter reaches a neighbouring cell — the landscape
		// the mutation scheduler hill-climbs.
		cell("shadows-exact", cfg, st.ShadowsCast),
		cell("mispredicts-exact", cfg, st.BranchMispredicts),
		cell("shape", cfg, e.ResA.Insts/16),
	}

	// Which digest components the pair diverges in, individually and as a
	// combination: each distinct divergence shape is its own discovery.
	var leaked []sim.Clause
	if e.Leak != nil {
		for _, c := range e.Leak.Components {
			out = append(out, cell("leak-"+c, cfg))
		}
		out = append(out, cell("leak-shape:"+strings.Join(e.Leak.Components, ","), cfg))
		leaked = e.Leak.LeakingClauses()
	}

	// Occupied cache sets, one cell per (level, set-bit).
	for level, bm := range map[string]uint64{
		"set-l1": e.ObsA.Cover.L1, "set-l2": e.ObsA.Cover.L2, "set-l3": e.ObsA.Cover.L3,
	} {
		for b := bm; b != 0; b &= b - 1 {
			out = append(out, cell(level, cfg, uint64(bits.TrailingZeros64(b))))
		}
	}

	// Predictor-state deltas between the two runs: which tables can tell
	// the pair apart at all (trained-at-commit tables differing is a much
	// rarer — and more alarming — behaviour than transient state differing).
	da, db := e.ObsA.Micro, e.ObsB.Micro
	for _, d := range []struct {
		name string
		diff bool
	}{
		{"stride", da.Stride != db.Stride},
		{"context", da.Context != db.Context},
		{"branch", da.Branch != db.Branch},
		{"mshr", da.MSHR != db.MSHR},
		{"traffic", da.Traffic != db.Traffic},
	} {
		if d.diff {
			out = append(out, cell("delta-"+d.name, cfg))
		}
	}

	// Per-clause contract outcome of the pair under this config.
	for _, cl := range sim.Lattice() {
		var v uint64
		if slices.Contains(leaked, cl) {
			v = 1
		}
		out = append(out, cell("clause-"+cl.String(), cfg, v))
	}
	return out
}
