package sim_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"doppelganger/internal/leakcheck"
	"doppelganger/sim"
)

func traceConfig() sim.Config {
	return sim.Config{Scheme: sim.DoM, AddressPrediction: true}
}

// TestTracedChecksumIdentity: a traced run streaming JSONL must produce the
// exact same architectural result as an untraced one.
func TestTracedChecksumIdentity(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	plain, err := sim.Run(p, traceConfig())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	traced, err := sim.RunContext(context.Background(), p, traceConfig(),
		sim.WithTracer(sim.NewJSONLSink(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	if traced.Checksum != plain.Checksum {
		t.Errorf("traced checksum %#x != untraced %#x", traced.Checksum, plain.Checksum)
	}
	if traced.Cycles != plain.Cycles || traced.Insts != plain.Insts {
		t.Errorf("traced timing diverged: %d/%d vs %d/%d cycles/insts",
			traced.Cycles, traced.Insts, plain.Cycles, plain.Insts)
	}
	if buf.Len() == 0 {
		t.Fatal("traced run wrote no JSONL")
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if _, ok := e["kind"]; !ok {
			t.Fatalf("line %d has no kind field: %s", lines, sc.Text())
		}
	}
	if lines == 0 {
		t.Fatal("JSONL stream had no lines")
	}
}

// TestTracedChecksumIdentityParallel runs traced and untraced simulations of
// the same program concurrently and checks every run agrees — tracing state
// is per-core, so parallel traced runs must not interfere.
func TestTracedChecksumIdentityParallel(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	want, err := sim.Run(p, traceConfig())
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	sums := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var opts []sim.RunOption
			if i%2 == 0 {
				opts = append(opts, sim.WithTracer(sim.NewRingSink(1024)))
			}
			res, err := sim.RunContext(context.Background(), p, traceConfig(), opts...)
			errs[i], sums[i] = err, res.Checksum
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if sums[i] != want.Checksum {
			t.Errorf("worker %d (traced=%v): checksum %#x != %#x", i, i%2 == 0, sums[i], want.Checksum)
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunContext(ctx, p, traceConfig()); err == nil {
		t.Fatal("RunContext with a cancelled context succeeded")
	}
}

func TestWithMaxCycles(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	if _, err := sim.RunContext(context.Background(), p, traceConfig(), sim.WithMaxCycles(10)); err == nil {
		t.Fatal("10-cycle budget should not be enough to halt")
	}
	if _, err := sim.RunContext(context.Background(), p, traceConfig(), sim.WithMaxCycles(1_000_000)); err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
}

func TestWithTraceWindow(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	ring := sim.NewRingSink(1 << 16)
	if _, err := sim.RunContext(context.Background(), p, traceConfig(),
		sim.WithTracer(ring), sim.WithTraceWindow(0, 20)); err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("window [0, 20] captured no events")
	}
	for _, e := range events {
		if e.Cycle > 20 {
			t.Errorf("event %v at cycle %d escaped window [0, 20]", e.Kind, e.Cycle)
		}
	}
}

// TestWithMetrics checks the run flushes its counters into the registry and
// the registry renders them in Prometheus text format.
func TestWithMetrics(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	m := sim.NewMetrics()
	if _, err := sim.RunContext(context.Background(), p, traceConfig(), sim.WithMetrics(m)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"sim_cycles_total",
		"sim_instructions_total",
		"sim_cache_hits_total",
		"sim_shadow_lifetime_cycles",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("Prometheus output missing %s", family)
		}
	}
}

// TestRunnerMatchesPackageFunctions: one Runner making a mixed sequence of
// runs — configurations that alternate, a gadget whose configuration
// switches to a gshare predictor, a run cut off by its cycle budget, a run
// that fills whole cache levels, a cancelled run, a snapshot and restores
// — returns exactly what the package-level functions, each on a fresh
// core, return for every run.
func TestRunnerMatchesPackageFunctions(t *testing.T) {
	quick := sim.MustAssemble("quick", quickSource)
	w, ok := sim.WorkloadByName("hash_irregular")
	if !ok {
		t.Fatal("no hash_irregular workload")
	}
	kernel := w.Build(sim.ScaleTest)
	sw, ok := sim.WorkloadByName("stream")
	if !ok {
		t.Fatal("no stream workload")
	}
	stream := sw.Build(sim.ScaleTest)
	dom := sim.Config{Scheme: sim.DoM, AddressPrediction: true}
	cleanup := sim.Config{Scheme: sim.Cleanup}
	ck, err := sim.Snapshot(kernel, dom, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	poison := leakcheck.Generate(7)
	poison.Kind = leakcheck.KindBranchPoison
	poison = poison.Normalize()
	gadget := poison.Build(poison.SecretA)
	gshare := leakcheck.Config{Scheme: sim.STT, AP: true}.SimConfig(poison)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type outcome struct {
		Res sim.Result
		Obs sim.Observation
		Err string
	}
	steps := []struct {
		name string
		run  func(r *sim.Runner, o *sim.Observation) (sim.Result, error)
	}{
		{"quick/dom", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(context.Background(), quick, dom, sim.Observe(o))
		}},
		{"kernel/dom cut off", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(context.Background(), kernel, dom, sim.WithMaxCycles(3_000))
		}},
		{"kernel/dom", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(context.Background(), kernel, dom, sim.Observe(o))
		}},
		{"stream/dom, outgrowing a short run's storage", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(context.Background(), stream, dom, sim.Observe(o))
		}},
		{"kernel/cleanup cancelled", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(cancelled, kernel, cleanup)
		}},
		{"quick/cleanup", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(context.Background(), quick, cleanup, sim.Observe(o))
		}},
		{"kernel/cleanup from checkpoint", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunFromCheckpoint(context.Background(), kernel, cleanup, ck, sim.Observe(o))
		}},
		{"kernel/dom from checkpoint", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunFromCheckpoint(context.Background(), nil, dom, ck, sim.Observe(o))
		}},
		{"kernel/dom snapshot", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			got, err := r.Snapshot(kernel, dom, 2_000)
			if err == nil && got.Digest() != ck.Digest() {
				t.Errorf("Runner.Snapshot digest %s, package-level %s", got.Digest(), ck.Digest())
			}
			return sim.Result{}, err
		}},
		{"branch-poison gadget/stt+ap with gshare", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(context.Background(), gadget, gshare, sim.Observe(o))
		}},
		{"quick/dom again", func(r *sim.Runner, o *sim.Observation) (sim.Result, error) {
			return r.RunContext(context.Background(), quick, dom, sim.Observe(o))
		}},
	}
	var kept sim.Runner
	for _, s := range steps {
		var want, got outcome
		res, err := s.run(new(sim.Runner), &want.Obs)
		want.Res = res
		if err != nil {
			want.Err = err.Error()
		}
		res, err = s.run(&kept, &got.Obs)
		got.Res = res
		if err != nil {
			got.Err = err.Error()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kept Runner gave %+v\nfresh Runner gave %+v", s.name, got, want)
		}
	}
}
