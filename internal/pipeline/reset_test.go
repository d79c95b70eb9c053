package pipeline_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"doppelganger/internal/leakcheck"
	"doppelganger/internal/obs"
	"doppelganger/internal/pipeline"
	"doppelganger/internal/predictor"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// resetCycleLimit bounds every run of the reset tests.
const resetCycleLimit = 200_000

// runOutcome is everything a finished run shows: its result, µarch digest
// and full-lattice observation as encoded bytes, and its checkpoint image.
// The image is compared as a value: its encoding (JSON, as a checkpoint
// file holds it) is a function of the value, and encoding a full L3 twice
// per program would dominate the test.
type runOutcome struct {
	result, micro, observation []byte
	state                      *pipeline.CoreState
}

// finish runs the core to completion, with observation traces when traces
// is set, and records what the run shows.
func finish(t *testing.T, c *pipeline.Core, p *program.Program, traces bool) runOutcome {
	t.Helper()
	if traces {
		c.EnableObsTraces()
	}
	if err := c.Run(0, resetCycleLimit); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	cfg := c.Config()
	res := sim.Summarize(p, sim.Config{Scheme: cfg.Scheme, AddressPrediction: cfg.AddressPrediction}, c)
	var o sim.Observation
	sim.CaptureObservation(&o, c, p)
	st, err := c.CaptureState()
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return runOutcome{enc(res), enc(c.MicroDigest()), enc(o), st}
}

// mustEqual fails unless the reset core's run shows exactly what the fresh
// core's did.
func mustEqual(t *testing.T, what string, reset, fresh runOutcome) {
	t.Helper()
	for _, f := range []struct {
		name string
		a, b []byte
	}{
		{"Result", reset.result, fresh.result},
		{"MicroDigest", reset.micro, fresh.micro},
		{"Observation", reset.observation, fresh.observation},
	} {
		if !bytes.Equal(f.a, f.b) {
			t.Fatalf("%s: reset core's %s differs from a fresh core's\nreset: %.600s\nfresh: %.600s",
				what, f.name, f.a, f.b)
		}
	}
	if !reflect.DeepEqual(reset.state, fresh.state) {
		t.Fatalf("%s: reset core's CaptureState differs from a fresh core's", what)
	}
}

// abandonMidSquash steps the core until it has squashed and, under an undo
// scheme, holds unretired journal records, and leaves it there: the state
// an abandoned run (a cycle limit, a cancelled context) leaves behind.
func abandonMidSquash(t *testing.T, c *pipeline.Core) {
	t.Helper()
	c.EnableObsTraces()
	for !c.Halted() {
		c.Step()
		if c.Stats.Squashed > 0 && (!c.Config().Scheme.UndoesSpeculation() || c.Hierarchy().UndoPending() > 0) {
			return
		}
	}
	t.Fatal("the run halted before it was caught mid-squash")
}

// exposition renders the registry in Prometheus text format.
func exposition(t *testing.T, m *obs.Metrics) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// abandonAtBusiest steps the core, just reset to p, to the cycle where a
// fresh run of p under cfg has the most in-flight structures occupied
// (Core.Busy), observation traces on, and leaves it there in a drain that
// ran out of budget, fetch still stalled.
func abandonAtBusiest(t *testing.T, c *pipeline.Core, p *program.Program, cfg pipeline.Config) {
	t.Helper()
	probe, err := pipeline.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	probe.EnableObsTraces()
	best, at := -1, uint64(0)
	for !probe.Halted() && probe.Cycle() < resetCycleLimit {
		probe.Step()
		if b := probe.Busy(); b > best {
			best, at = b, probe.Cycle()
		}
	}
	c.EnableObsTraces()
	for c.Cycle() < at && !c.Halted() {
		c.Step()
	}
	_ = c.Drain(1)
}

// warmState runs p for 200 instructions on a fresh core under cfg, drains
// it and returns its checkpoint image.
func warmState(t *testing.T, cfg pipeline.Config, p *program.Program) *pipeline.CoreState {
	t.Helper()
	warm, err := pipeline.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Run(200, resetCycleLimit); err != nil {
		t.Fatal(err)
	}
	if err := warm.Drain(0); err != nil {
		t.Fatal(err)
	}
	st, err := warm.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// resetInputs is the programs the reset core runs in turn, each after the
// one before it: fuzz programs, generated gadgets (both secrets), a
// program that never touches memory, and under an undo scheme the
// gauntlet's primed gadgets.
func resetInputs(scheme secure.Scheme, fuzz, gadgets, primed int) []*program.Program {
	var progs []*program.Program
	for seed := 1; seed <= fuzz; seed++ {
		progs = append(progs, pipeline.RandomProgram(uint64(seed)*0x9e3779b9, 12+seed%14, 60+seed*7))
	}
	for seed := int64(0); seed < int64(gadgets); seed++ {
		p := leakcheck.Generate(seed).Normalize()
		secret := p.SecretA
		if seed%2 == 1 {
			secret = p.SecretB
		}
		progs = append(progs, p.Build(secret))
	}
	// A program that never accesses memory leaves the hierarchy as the
	// reset found it.
	b := program.NewBuilder("alu-only")
	b.LoadI(1, 7)
	b.AddI(2, 1, 3)
	b.Mul(3, 2, 1)
	b.Halt()
	progs = append(progs, b.MustBuild())
	if scheme.UndoesSpeculation() {
		for _, m := range secure.Mutations() {
			if s, _ := m.Target(); s != scheme {
				continue
			}
			for seed := int64(0); seed < int64(primed); seed++ {
				p := leakcheck.GauntletParams(seed, m).Normalize()
				progs = append(progs, p.Build(p.SecretA))
			}
			break
		}
	}
	return progs
}

// resetMachines is every registry scheme ±AP on the default machine, plus
// two machines that instantiate the optional tables — DoM with value
// prediction, and STT+AP with the hybrid address predictor, both with
// gshare and store-set memory dependence prediction — and Cleanup+AP on a
// tiny hierarchy: two L1 MSHRs, whose loads park on a full MSHR file, a
// randomly replacing L1, and levels small enough to write dirty lines
// back to DRAM.
func resetMachines() map[string]pipeline.Config {
	out := map[string]pipeline.Config{}
	for _, scheme := range secure.AllSchemes() {
		for _, ap := range []bool{false, true} {
			cfg := pipeline.DefaultConfig()
			cfg.Scheme = scheme
			cfg.AddressPrediction = ap
			out[fmt.Sprintf("%v/ap=%v", scheme, ap)] = cfg
		}
	}
	ext := func(scheme secure.Scheme, ap bool) pipeline.Config {
		cfg := pipeline.DefaultConfig()
		cfg.Scheme = scheme
		cfg.AddressPrediction = ap
		cfg.BranchPredictorKind = pipeline.BranchGShare
		cfg.MemDepPrediction = true
		return cfg
	}
	vp := ext(secure.DoM, false)
	vp.ValuePrediction = true
	out["dom+vp"] = vp
	hybrid := ext(secure.STT, true)
	hybrid.AddressPredictorKind = pipeline.PredictorHybrid
	out["stt+ap-hybrid"] = hybrid
	tiny := pipeline.DefaultConfig()
	tiny.Scheme = secure.Cleanup
	tiny.AddressPrediction = true
	tiny.Memory.L1MSHRs = 2
	tiny.Memory.L1D.SizeBytes, tiny.Memory.L1D.Ways = 512, 2
	tiny.Memory.L1D.RandomReplacement = true
	tiny.Memory.L2.SizeBytes, tiny.Memory.L2.Ways = 1024, 2
	tiny.Memory.L3.SizeBytes, tiny.Memory.L3.Ways = 2048, 4
	out["cleanup/ap=true/tiny"] = tiny
	return out
}

// retargetMachines is the configurations one core is reset between, all
// sizing storage as the default machine does: every registry scheme ±AP,
// Cleanup with each planted rollback weakening, the two machines of
// resetMachines with the optional tables, and DoM+AP on a gshare table
// smaller than the default one, which a core that built the default table
// must build again. Names are sorted.
func retargetMachines() ([]string, map[string]pipeline.Config) {
	out := resetMachines()
	delete(out, "cleanup/ap=true/tiny")
	for _, m := range secure.Mutations() {
		if s, _ := m.Target(); s.UndoesSpeculation() {
			cfg := pipeline.DefaultConfig()
			cfg.Scheme, cfg.Mutation = s, m
			out[fmt.Sprintf("%v!%v", s, m)] = cfg
		}
	}
	small := pipeline.DefaultConfig()
	small.Scheme, small.AddressPrediction = secure.DoM, true
	small.BranchPredictorKind = pipeline.BranchGShare
	small.GShare = predictor.GShareConfig{Entries: 256, HistoryBits: 8}
	out["dom/ap=true/gshare-256"] = small
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, out
}

// retargetInputs is the programs a core reset to cfg runs in the retarget
// chain: gadgets with both secrets and, under an undo scheme, gadgets
// that prime the L1 first, so squashed fills evict lines.
func retargetInputs(cfg pipeline.Config, gadgets int) []*program.Program {
	var progs []*program.Program
	for seed := int64(0); seed < int64(gadgets); seed++ {
		p := leakcheck.Generate(seed)
		p.Prime = cfg.Scheme.UndoesSpeculation() && seed%2 == 0
		p = p.Normalize()
		progs = append(progs, p.Build(p.SecretA), p.Build(p.SecretB))
	}
	return progs
}

// TestResetEqualsFresh holds Core.Reset to its contract: a used core reset
// to program Y runs Y exactly as a fresh core does — Result, MicroDigest,
// full-lattice Observation and checkpoint image byte-identical, with the
// invariant checker on every cycle — on every machine of resetMachines.
// Each core is first left mid-squash (under Cleanup with journal records
// live), then runs with a trace sink, metrics, a cycle window and a
// replaced branch predictor attached, none of which may reach a later
// run. In the chain that follows every fourth run is abandoned where its
// window is fullest, and the runs compared alternate with and without
// observation traces. The chain ends with a checkpoint restore on the
// used core (ResetFromState) against a fresh NewFromState. Gadget seeds
// 0–31 in full; -short takes a quarter of every input set, and the race
// detector's ~10x slowdown one or two of each.
//
// Reset also retargets: for every ordered pair (X, Y) of
// retargetMachines, a core left mid-squash under X is reset to Y and runs
// a gadget exactly as a fresh core under Y does, every third pair through
// a checkpoint restore (ResetFromState against NewFromState), and every
// other pair with the invariant checker on. -short takes one pair in
// three, and the race detector one in eleven.
func TestResetEqualsFresh(t *testing.T) {
	fuzz, gadgets, primed := 4, 32, 8
	switch {
	case raceEnabled:
		fuzz, gadgets, primed = 1, 2, 1
	case testing.Short():
		fuzz, gadgets, primed = 2, 8, 2
	}
	pairs := 1
	switch {
	case raceEnabled:
		pairs = 11
	case testing.Short():
		pairs = 3
	}
	t.Run("retarget", func(t *testing.T) { testRetarget(t, gadgets, pairs) })
	for name, cfg := range resetMachines() {
		// The fresh cores run unchecked: the invariant checker only reads,
		// so the two must still agree exactly.
		unchecked := cfg
		cfg.SelfCheck = true
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			progs := resetInputs(cfg.Scheme, fuzz, gadgets, primed)
			c, err := pipeline.New(cfg, progs[fuzz])
			if err != nil {
				t.Fatal(err)
			}
			abandonMidSquash(t, c)

			// The first run after the abandoned one carries every
			// attachment, and must match a fresh core's run with the same
			// attachments event for event; none of them may reach a later
			// run.
			attached := func(c *pipeline.Core) (runOutcome, *obs.RingSink, *obs.Metrics) {
				sink, met := obs.NewRingSink(1<<16), obs.NewMetrics()
				c.SetTraceSink(sink)
				c.SetMetrics(met)
				c.SetCycleWindow(100, 2000)
				c.SetBranchPredictor(predictor.StaticTaken{})
				return finish(t, c, progs[0], true), sink, met
			}
			if err := c.Reset(cfg, progs[0]); err != nil {
				t.Fatal(err)
			}
			got, sink, met := attached(c)
			fresh, err := pipeline.New(unchecked, progs[0])
			if err != nil {
				t.Fatal(err)
			}
			want, wantSink, wantMet := attached(fresh)
			mustEqual(t, "the run after an abandoned one", got, want)
			if !reflect.DeepEqual(sink.Events(), wantSink.Events()) {
				t.Fatal("the run after an abandoned one traced other events than a fresh core's")
			}
			metrics := exposition(t, met)
			if !bytes.Equal(metrics, exposition(t, wantMet)) {
				t.Fatal("the run after an abandoned one recorded other metrics than a fresh core's")
			}
			events := sink.Len()

			for i, p := range progs[1:] {
				if err := c.Reset(cfg, p); err != nil {
					t.Fatal(err)
				}
				if i%4 == 0 {
					abandonAtBusiest(t, c, p, unchecked)
					continue
				}
				traces := i%2 == 1
				got := finish(t, c, p, traces)
				fresh, err := pipeline.New(unchecked, p)
				if err != nil {
					t.Fatal(err)
				}
				mustEqual(t, fmt.Sprintf("program %d (%s)", i+1, p.Name), got, finish(t, fresh, p, traces))
			}
			if sink.Len() != events {
				t.Fatalf("the detached trace sink received %d events after Reset", sink.Len()-events)
			}
			if !bytes.Equal(exposition(t, met), metrics) {
				t.Fatal("the detached metrics registry changed after Reset")
			}

			// Warm a gadget on a fresh core, then restore it on the used
			// core and on a fresh one.
			gp := leakcheck.Generate(5).Normalize()
			p := gp.Build(gp.SecretB)
			st := warmState(t, cfg, p)
			if err := c.ResetFromState(cfg, p, st); err != nil {
				t.Fatal(err)
			}
			sink = obs.NewRingSink(1 << 16)
			c.SetTraceSink(sink)
			got = finish(t, c, p, true)
			fresh, err = pipeline.NewFromState(unchecked, p, st)
			if err != nil {
				t.Fatal(err)
			}
			wantSink = obs.NewRingSink(1 << 16)
			fresh.SetTraceSink(wantSink)
			mustEqual(t, "checkpoint restore", got, finish(t, fresh, p, true))
			if !reflect.DeepEqual(sink.Events(), wantSink.Events()) {
				t.Fatal("the restored run traced other events than a fresh core's")
			}
		})
	}
}

// testRetarget is TestResetEqualsFresh's cross-configuration half: one
// core per machine X, reset to every machine Y in turn, one pair in
// every pairs taken.
func testRetarget(t *testing.T, gadgets, pairs int) {
	names, machines := retargetMachines()
	inputs := map[string][]*program.Program{}
	for _, name := range names {
		inputs[name] = retargetInputs(machines[name], gadgets)
	}
	for xi, x := range names {
		t.Run(x, func(t *testing.T) {
			t.Parallel()
			X := machines[x]
			c, err := pipeline.New(X, inputs[x][0])
			if err != nil {
				t.Fatal(err)
			}
			for yi, y := range names {
				if (xi+yi)%pairs != 0 {
					continue
				}
				// Leave the core mid-squash under X, then retarget it.
				if err := c.Reset(X, inputs[x][yi%len(inputs[x])]); err != nil {
					t.Fatal(err)
				}
				abandonMidSquash(t, c)
				Y := machines[y]
				checked := Y
				checked.SelfCheck = (xi+yi)%2 == 0
				q := inputs[y][xi%len(inputs[y])]
				what := fmt.Sprintf("%s reset from %s, %s", y, x, q.Name)
				if yi%3 != 2 {
					if err := c.Reset(checked, q); err != nil {
						t.Fatal(err)
					}
					traces := yi%2 == 1
					fresh, err := pipeline.New(Y, q)
					if err != nil {
						t.Fatal(err)
					}
					mustEqual(t, what, finish(t, c, q, traces), finish(t, fresh, q, traces))
					continue
				}
				st := warmState(t, Y, q)
				if err := c.ResetFromState(checked, q, st); err != nil {
					t.Fatal(err)
				}
				fresh, err := pipeline.NewFromState(Y, q, st)
				if err != nil {
					t.Fatal(err)
				}
				mustEqual(t, what+", restored", finish(t, c, q, true), finish(t, fresh, q, true))
			}
		})
	}
}

// TestResetRefusesInvalidProgram: Reset validates the configuration and
// program first, refuses a configuration that sizes storage differently
// from the core's, and leaves the core unchanged when it refuses.
func TestResetRefusesInvalidProgram(t *testing.T) {
	p := pipeline.RandomProgram(7, 10, 20)
	c, err := pipeline.New(pipeline.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	bad := &program.Program{Name: "bad", Entry: 99}
	if err := c.Reset(pipeline.DefaultConfig(), bad); err == nil {
		t.Fatal("Reset accepted an invalid program")
	}
	invalid := pipeline.DefaultConfig()
	invalid.ROBSize = 0
	if err := c.Reset(invalid, p); err == nil {
		t.Fatal("Reset accepted an invalid configuration")
	}
	for _, resize := range []func(*pipeline.Config){
		func(cfg *pipeline.Config) { cfg.ROBSize /= 2 },
		func(cfg *pipeline.Config) { cfg.Memory.L1MSHRs = 4 },
		func(cfg *pipeline.Config) { cfg.Branch.Entries *= 2 },
	} {
		other := pipeline.DefaultConfig()
		other.Scheme = secure.DoM
		resize(&other)
		if err := c.Reset(other, p); err == nil {
			t.Fatalf("Reset accepted a configuration with other storage: %+v", other)
		}
	}
	if err := c.Run(0, resetCycleLimit); err != nil {
		t.Fatal(err)
	}
	want := program.Run(p, 5_000_000).Checksum()
	if got := c.ArchState().Checksum(); got != want {
		t.Fatalf("after a refused Reset the core ran to checksum %#x, want %#x", got, want)
	}
	if !reflect.DeepEqual(c.Config(), pipeline.DefaultConfig()) {
		t.Fatal("Config changed")
	}
}
