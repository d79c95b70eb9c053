// Package secure implements the building blocks of the three secure
// speculation schemes the paper evaluates — Non-speculative Data Access with
// permissive propagation (NDA-P), Speculative Taint Tracking (STT), and
// Delay-on-Miss (DoM) — plus the unsafe baseline, in one registry table.
//
// The schemes share a common notion of speculation: an instruction is
// speculative while an older *shadow-casting* instruction is unresolved
// (unresolved control flow, or a store with an unresolved address). This is
// the shadow tracking of Ghost Loads / Delay-on-Miss, which the paper uses
// for all evaluated schemes. ShadowTracker implements it. TaintTracker
// implements STT's youngest-root-of-taint propagation over physical
// registers.
package secure

import (
	"fmt"
	"strings"
)

// Scheme selects a secure speculation scheme. Values and names are part of
// engine keys, checkpoints and corpus records, so they never change.
type Scheme uint8

// The evaluated schemes.
const (
	// Unsafe is the unprotected out-of-order baseline: speculatively
	// loaded values propagate freely and can leak.
	Unsafe Scheme = iota
	// NDAP is NDA with permissive propagation: speculative loads issue
	// and complete, but their values do not propagate to dependents until
	// the load is non-speculative.
	NDAP
	// STT taints speculatively loaded values and delays only tainted
	// transmitters (loads, branch resolution); dependent non-transmitters
	// execute freely.
	STT
	// DoM (Delay-on-Miss) lets speculative loads that hit in the L1
	// proceed (with delayed replacement update) and delays L1 misses
	// until the load is non-speculative.
	DoM
	// NDAS is NDA with strict propagation: a load's value propagates only
	// once the load is the oldest instruction in flight, the conservative
	// variant the NDA paper offers for stronger threat models.
	NDAS
	// STTSpectre is STT under the Spectre threat model: only loads that
	// are control-speculative (younger than an unresolved branch) taint
	// their outputs; loads speculative merely through unresolved store
	// addresses do not. The paper's STT evaluation uses the futuristic
	// model (our STT); this variant reproduces the weaker model from the
	// STT paper for comparison.
	STTSpectre
	// Cleanup is a CleanupSpec-style *undo* scheme — the field's other
	// major design point next to the delay-based schemes above. Speculative
	// loads issue, propagate and fill caches exactly as on the unsafe
	// baseline; the hierarchy instead journals every speculative side
	// effect (fills, evictions, replacement-recency touches, MSHR
	// allocations, traffic counters) and a squash rolls the journal back
	// past the squash boundary, reinstating evicted victims. Protection is
	// therefore retrospective: the wrong path runs at full speed, and its
	// micro-architectural footprint is erased before non-transient code can
	// observe it.
	Cleanup

	numSchemes
)

// Threat is a threat model: the speculation sources a scheme defends.
type Threat uint8

// Speculation sources, and the threat models built from them.
const (
	ControlSpeculation Threat = 1 << iota // past an unresolved branch (Spectre v1/v2)
	StoreSpeculation                      // past a store with an unresolved address (Spectre v4)

	Spectre    = ControlSpeculation                    // the STT paper's Spectre model
	Futuristic = ControlSpeculation | StoreSpeculation // every shadow; the paper's model
)

// Covers reports whether the threat model includes every source in src.
func (t Threat) Covers(src Threat) bool { return src != 0 && t&src == src }

// Planted is one deliberate weakening of a scheme's protection; NeedAP is
// set when it is only reachable with doppelganger loads enabled.
type Planted struct {
	Mutation Mutation
	Name     string
	NeedAP   bool
}

// Info is one scheme's registry row. The capability fields are read
// through the Scheme methods of the same names.
type Info struct {
	Name    string
	Paper   bool   // evaluated in the paper (the unsafe baseline included)
	Figures bool   // a secure scheme cmd/figures evaluates against the baseline
	Threat  Threat // the threat model defended; zero defends nothing

	DelaysPropagation, PropagatesAtHead, TracksTaint  bool
	ControlOnlyTaint, DelaysOnMiss, UndoesSpeculation bool

	Mutations []Planted // planted weakenings (leakcheck mutation gauntlet)
}

// registry is the scheme table. Adding a scheme is one row here plus its
// mechanism in the pipeline, behind a capability field.
var registry = [numSchemes]Info{
	Unsafe: {Name: "unsafe", Paper: true},
	NDAP: {Name: "nda-p", Paper: true, Figures: true, Threat: Futuristic, DelaysPropagation: true,
		Mutations: []Planted{{MutNDAFreeProp, "nda-free-prop", false}}},
	STT: {Name: "stt", Paper: true, Figures: true, Threat: Futuristic, TracksTaint: true,
		Mutations: []Planted{{MutSTTNoTaint, "stt-no-taint", false}}},
	DoM: {Name: "dom", Paper: true, Figures: true, Threat: Futuristic, DelaysOnMiss: true,
		Mutations: []Planted{
			{MutDoMIssueMiss, "dom-issue-miss", false},
			// Speculative training only matters when the poisoned table
			// is consulted, i.e. with doppelganger loads enabled; DoM is
			// the scheme that lets a speculatively loaded value compute
			// the wrong-path address that poisons the table (L1-hit
			// propagation).
			{MutSpecTrain, "spec-train", true},
		}},
	NDAS:       {Name: "nda-s", Threat: Futuristic, DelaysPropagation: true, PropagatesAtHead: true},
	STTSpectre: {Name: "stt-spectre", Threat: Spectre, TracksTaint: true, ControlOnlyTaint: true},
	Cleanup: {Name: "cleanup", Figures: true, Threat: Futuristic, UndoesSpeculation: true,
		Mutations: []Planted{
			{MutCleanupNoLRUUndo, "cleanup-no-lru-undo", false},
			{MutCleanupDropEvicted, "cleanup-drop-evicted", false},
		}},
}

// Info returns the scheme's registry row (the zero row if undefined).
func (s Scheme) Info() Info {
	if s < numSchemes {
		return registry[s]
	}
	return Info{}
}

// String returns the scheme's short name.
func (s Scheme) String() string {
	if s < numSchemes {
		return registry[s].Name
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Valid reports whether the scheme is defined.
func (s Scheme) Valid() bool { return s < numSchemes }

// ParseScheme maps a name (as produced by String) back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for i := range registry {
		if registry[i].Name == name {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("secure: unknown scheme %q", name)
}

// Select lists the schemes whose rows satisfy keep, in registry order.
func Select(keep func(Info) bool) []Scheme {
	var out []Scheme
	for i := range registry {
		if keep(registry[i]) {
			out = append(out, Scheme(i))
		}
	}
	return out
}

// Schemes lists the paper's evaluated schemes in evaluation order.
func Schemes() []Scheme { return Select(func(i Info) bool { return i.Paper }) }

// AllSchemes additionally includes the variants this reproduction adds
// beyond the paper's evaluation (strict NDA, Spectre-model STT, and the
// CleanupSpec-style undo scheme).
func AllSchemes() []Scheme { return Select(func(Info) bool { return true }) }

// Names returns the schemes' short names.
func Names(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.String()
	}
	return out
}

// ParseMatrix resolves a scheme × address-prediction selection as the CLIs
// and services take it: no names selects the paper's schemes and a lone
// "all" every scheme; ap is "both" (or empty), "on" or "off".
func ParseMatrix(names []string, ap string) ([]Scheme, []bool, error) {
	aps, ok := map[string][]bool{"": {false, true}, "both": {false, true}, "off": {false}, "on": {true}}[ap]
	if !ok {
		return nil, nil, fmt.Errorf("unknown ap %q (want \"both\", \"on\" or \"off\")", ap)
	}
	if len(names) == 0 {
		return Schemes(), aps, nil
	}
	if len(names) == 1 && names[0] == "all" {
		return AllSchemes(), aps, nil
	}
	schemes := make([]Scheme, len(names))
	for i, n := range names {
		var err error
		if schemes[i], err = ParseScheme(strings.TrimSpace(n)); err != nil {
			return nil, nil, err
		}
	}
	return schemes, aps, nil
}

// DelaysPropagation reports whether the scheme withholds a speculative
// load's result from dependents until the load is safe (NDA variants).
func (s Scheme) DelaysPropagation() bool { return s < numSchemes && registry[s].DelaysPropagation }

// PropagatesAtHead reports whether loads may only propagate once they are
// the oldest in-flight instruction (NDA strict propagation).
func (s Scheme) PropagatesAtHead() bool { return s < numSchemes && registry[s].PropagatesAtHead }

// TracksTaint reports whether the scheme uses taint tracking (STT models).
func (s Scheme) TracksTaint() bool { return s < numSchemes && registry[s].TracksTaint }

// ControlOnlyTaint reports whether taint liveness considers only control
// speculation (the Spectre threat model) rather than all shadows.
func (s Scheme) ControlOnlyTaint() bool { return s < numSchemes && registry[s].ControlOnlyTaint }

// DelaysOnMiss reports whether speculative loads that miss in the L1 are
// delayed until non-speculative (DoM).
func (s Scheme) DelaysOnMiss() bool { return s < numSchemes && registry[s].DelaysOnMiss }

// UndoesSpeculation reports whether the scheme lets speculative accesses
// change the cache hierarchy freely and rolls the changes back on squash
// (the CleanupSpec design point), rather than delaying them up front.
func (s Scheme) UndoesSpeculation() bool { return s < numSchemes && registry[s].UndoesSpeculation }
