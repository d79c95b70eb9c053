package cluster

import (
	"cmp"
	"fmt"
	"strings"
	"sync"

	"doppelganger/internal/engine"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// JobSpec is the cluster's wire description of one simulation: a suite
// workload under one configuration. It is deliberately a *description*
// rather than a program image — both coordinator and workers hold the
// workload registry, build the identical deterministic program, and derive
// the identical canonical engine key, which dispatch cross-checks to catch
// version skew between cluster nodes.
type JobSpec struct {
	// Workload is a suite workload name.
	Workload string `json:"workload"`
	// Scale is "test" or "full" (default "full").
	Scale string `json:"scale,omitempty"`
	// Scheme is the secure speculation scheme name (default "unsafe").
	Scheme string `json:"scheme,omitempty"`
	// AP enables doppelganger loads.
	AP bool `json:"ap,omitempty"`
	// MaxInsts bounds committed instructions (0 = run to halt).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// MaxCycles bounds simulated cycles (0 = default budget).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// programs memoizes built workload images process-wide: programs are
// immutable and deterministic per (workload, scale), and coordinator-side
// key derivation would otherwise rebuild every image per request.
var programs sync.Map // progKey -> *sim.Program

type progKey struct {
	name  string
	scale workload.Scale
}

func buildProgram(name string, scale workload.Scale) (*sim.Program, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q; known: %s",
			name, strings.Join(workload.Names(), ", "))
	}
	k := progKey{name, scale}
	if p, ok := programs.Load(k); ok {
		return p.(*sim.Program), nil
	}
	p, _ := programs.LoadOrStore(k, w.Build(scale))
	return p.(*sim.Program), nil
}

// ParseScale maps a wire scale name to a workload scale.
func ParseScale(name string) (workload.Scale, error) {
	switch name {
	case "", "full":
		return workload.ScaleFull, nil
	case "test":
		return workload.ScaleTest, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want \"test\" or \"full\")", name)
	}
}

// Resolve validates the spec and builds the engine job it describes. The
// job's Key() is the cluster's sharding and storage key.
func (s JobSpec) Resolve() (engine.Job, error) {
	if s.Workload == "" {
		return engine.Job{}, fmt.Errorf("missing \"workload\"")
	}
	scale, err := ParseScale(s.Scale)
	if err != nil {
		return engine.Job{}, err
	}
	scheme, err := sim.ParseScheme(cmp.Or(s.Scheme, sim.Unsafe.String()))
	if err != nil {
		return engine.Job{}, err
	}
	prog, err := buildProgram(s.Workload, scale)
	if err != nil {
		return engine.Job{}, err
	}
	return engine.Job{
		Program: prog,
		Config: sim.Config{
			Scheme:            scheme,
			AddressPrediction: s.AP,
			MaxInsts:          s.MaxInsts,
			MaxCycles:         s.MaxCycles,
		},
	}, nil
}

// SweepSpec describes a workload × scheme × ±AP matrix.
type SweepSpec struct {
	// Workloads restricts the sweep (empty = the full suite).
	Workloads []string `json:"workloads,omitempty"`
	// Schemes restricts the sweep by name (empty = unsafe + the paper's
	// three schemes; "all" = every scheme including extensions).
	Schemes []string `json:"schemes,omitempty"`
	// AP is "both" (default), "on", or "off".
	AP string `json:"ap,omitempty"`
	// Scale is "test" or "full" (default "full").
	Scale string `json:"scale,omitempty"`
	// MaxInsts bounds committed instructions per cell.
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// MaxCycles bounds simulated cycles per cell.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Stream selects per-cell progress streaming: "" (buffered JSON),
	// "sse", or "ndjson". The Accept header can select it too.
	Stream string `json:"stream,omitempty"`
}

// Cells expands the matrix into job specs in canonical matrix order
// (workload, then scheme, then -AP/+AP) — the same order single-node
// doppeld sweeps use.
func (s SweepSpec) Cells() ([]JobSpec, error) {
	names := s.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	schemes, aps, err := secure.ParseMatrix(s.Schemes, s.AP)
	if err != nil {
		return nil, err
	}
	cells := make([]JobSpec, 0, len(names)*len(schemes)*len(aps))
	for _, name := range names {
		for _, scheme := range schemes {
			for _, ap := range aps {
				cells = append(cells, JobSpec{
					Workload:  name,
					Scale:     s.Scale,
					Scheme:    scheme.String(),
					AP:        ap,
					MaxInsts:  s.MaxInsts,
					MaxCycles: s.MaxCycles,
				})
			}
		}
	}
	return cells, nil
}
