// Package workload provides the synthetic benchmark suite used to reproduce
// the paper's evaluation. SPEC CPU2006/2017 binaries cannot run on this
// simulator, so each kernel is a purpose-built stand-in that dials the
// traits that explain its SPEC counterpart's behaviour in the paper:
// stride predictability (address-predictor coverage), address entropy
// (accuracy), working-set cache level, branch behaviour (shadow lifetimes),
// and load-dependence depth (memory parallelism lost under the secure
// schemes). See DESIGN.md §5 for the full mapping.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"doppelganger/internal/program"
)

// Scale selects how large a kernel instance to build. Tests use ScaleTest
// (seconds per run); the figure harness uses ScaleFull.
type Scale int

// Scales.
const (
	ScaleTest Scale = iota
	ScaleFull
)

// ParseScale maps a scale name to its Scale: "test", or "full" (also the
// empty name's default).
func ParseScale(name string) (Scale, error) {
	switch name {
	case "", "full":
		return ScaleFull, nil
	case "test":
		return ScaleTest, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want \"test\" or \"full\")", name)
}

// String is the scale's name, as ParseScale reads it.
func (s Scale) String() string {
	if s == ScaleTest {
		return "test"
	}
	return "full"
}

// Workload is one synthetic benchmark.
type Workload struct {
	// Name is the kernel's short identifier.
	Name string
	// Spec names the SPEC benchmark(s) this kernel stands in for.
	Spec string
	// Description states the dialled traits.
	Description string
	// Build constructs the program at the given scale. Programs are
	// deterministic: same scale, same program.
	Build func(Scale) *program.Program
}

var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration %q", w.Name))
	}
	registry[w.Name] = w
}

// All returns every workload, sorted by name for deterministic iteration.
func All() []Workload {
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns all workload names, sorted.
func Names() []string {
	ws := All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// ByName looks a workload up.
func ByName(name string) (Workload, bool) {
	w, ok := registry[name]
	return w, ok
}

// built memoizes Program: images are immutable and deterministic per
// (workload, scale), so every caller in the process shares one.
var (
	builtMu sync.Mutex
	built   = map[builtKey]*program.Program{}
)

type builtKey struct {
	name  string
	scale Scale
}

// Program returns the named workload built at the scale, building it once
// per process. Callers must not modify the image.
func Program(name string, s Scale) (*program.Program, error) {
	w, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q; known: %s", name, strings.Join(Names(), ", "))
	}
	builtMu.Lock()
	defer builtMu.Unlock()
	k := builtKey{name, s}
	p, ok := built[k]
	if !ok {
		p = w.Build(s)
		built[k] = p
	}
	return p, nil
}

// rng is a deterministic xorshift64* generator for reproducible data.
type rng uint64

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a deterministic pseudorandom permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pick scales an (test, full) pair by the requested scale.
func pick(s Scale, test, full int) int {
	if s == ScaleTest {
		return test
	}
	return full
}
