package pipeline_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"doppelganger/internal/mem"
	"doppelganger/internal/obs"
	"doppelganger/internal/pipeline"
)

// cycleLimits are the limits TestSkipEqualsStep cuts runs off at: a cut
// inside a quiet stretch ends a skipping run mid-jump, where the stretch's
// accounting must already be complete (the hierarchy's MSHR file
// included, which only a sweep for a parked load's retry changes there).
var cycleLimits = []uint64{300, 777, 2000}

// TestSkipEqualsStep: a run that skips quiet cycles shows exactly what a
// run that steps every one does. Under SelfCheck the run loop steps every
// cycle and asserts that each skip would have landed on the next active
// cycle; without it, the loop skips. Both must end with the same result,
// µarch digest, observation, checkpoint image and metrics (the occupancy
// histograms observe a skipped stretch once, weighted), take the same
// warm-up snapshot (Run to an instruction count, then Drain), and stop at
// each cycle limit at the same cycle, with the same error and hierarchy.
// -short and the race detector take one fuzz program and one gadget, and
// the race detector only four machines: the two-MSHR Cleanup machine,
// whose loads park on a full MSHR file, Cleanup, DoM+AP and STT.
func TestSkipEqualsStep(t *testing.T) {
	fuzz, gadgets, primed := 2, 3, 1
	if raceEnabled || testing.Short() {
		fuzz, gadgets = 1, 1
	}
	machines := resetMachines()
	names := make([]string, 0, len(machines))
	for name := range machines {
		switch name {
		case "cleanup/ap=true/tiny", "cleanup/ap=false", "dom/ap=true", "stt/ap=false":
		default:
			if raceEnabled {
				continue
			}
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := machines[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, p := range resetInputs(cfg.Scheme, fuzz, gadgets, primed) {
				var (
					outs   [2]runOutcome
					expos  [2][]byte
					warms  [2]*pipeline.CoreState
					limits [2][]string
					hiers  [2][]*mem.HierarchyState
				)
				for i, selfCheck := range []bool{false, true} {
					c := cfg
					c.SelfCheck = selfCheck
					core, err := pipeline.New(c, p)
					if err != nil {
						t.Fatal(err)
					}
					m := obs.NewMetrics()
					core.SetMetrics(m)
					outs[i] = finish(t, core, p, true)
					expos[i] = exposition(t, m)
					warms[i] = warmState(t, c, p)

					for _, limit := range cycleLimits {
						if err := core.Reset(c, p); err != nil {
							t.Fatal(err)
						}
						err := core.Run(0, limit)
						limits[i] = append(limits[i], fmt.Sprintf("%v\n%+v\n%s", err, core.Stats, core.DumpState(8)))
						hiers[i] = append(hiers[i], core.Hierarchy().State())
					}
				}
				what := name + ", " + p.Name
				for _, f := range []struct {
					name string
					a, b []byte
				}{
					{"Result", outs[0].result, outs[1].result},
					{"MicroDigest", outs[0].micro, outs[1].micro},
					{"Observation", outs[0].observation, outs[1].observation},
					{"metrics", expos[0], expos[1]},
				} {
					if !bytes.Equal(f.a, f.b) {
						t.Fatalf("%s: the skipping run's %s differs from the stepping run's\nskipping: %.600s\nstepping: %.600s",
							what, f.name, f.a, f.b)
					}
				}
				if !reflect.DeepEqual(outs[0].state, outs[1].state) {
					t.Fatalf("%s: the skipping run's CaptureState differs from the stepping run's", what)
				}
				if !reflect.DeepEqual(warms[0], warms[1]) {
					t.Fatalf("%s: the skipping run's warm-up snapshot differs from the stepping run's", what)
				}
				for k, limit := range cycleLimits {
					if limits[0][k] != limits[1][k] {
						t.Fatalf("%s: run to cycle limit %d: skipping ended in\n%s\nstepping in\n%s",
							what, limit, limits[0][k], limits[1][k])
					}
					if !reflect.DeepEqual(hiers[0][k], hiers[1][k]) {
						t.Fatalf("%s: run to cycle limit %d: the skipping run's hierarchy differs from the stepping run's", what, limit)
					}
				}
			}
		})
	}
}
