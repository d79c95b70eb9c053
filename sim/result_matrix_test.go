package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"doppelganger/internal/leakcheck"
	"doppelganger/internal/obs"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// updateResultMatrix regenerates testdata/result_matrix.json:
//
//	go test ./sim -run TestResultMatrixGolden -update
//
// Only do this after an intentional timing change: the file pins every
// simulated output bit for bit, so a pure refactor or optimisation must
// leave it untouched.
var updateResultMatrix = flag.Bool("update", false,
	"regenerate testdata/result_matrix.json instead of comparing against it")

const resultMatrixFile = "testdata/result_matrix.json"

// matrixMaxInsts caps each matrix cell, so the whole matrix runs in a few
// seconds serially (and stays affordable under -race).
const matrixMaxInsts = 4000

// eventsMaxInsts caps the traced runs, long enough for the stream kernel
// to reach steady state under every scheme.
const eventsMaxInsts = 20000

// gadgetSeeds is how many leakcheck gadgets have their observations pinned.
const gadgetSeeds = 16

// gadgetAllSeeds is how many leakcheck gadgets are pinned under every
// registry cell rather than one cell chosen round-robin.
const gadgetAllSeeds = 8

// pinnedCkptWarmup is the warm-up of the pinned checkpoints: short, so
// the drain that precedes each capture starts with misses still queued
// on the MSHR file.
const pinnedCkptWarmup = 300

// microKernels are the kernels whose µarch digest is pinned under every
// registry cell: each saturates the L1 MSHR file for long stretches, so
// the digest's traffic fingerprint carries the exact count of accesses a
// full MSHR file turned away.
var microKernels = []string{"stream", "sparse_spmv", "scan_match"}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// jsonDigest is the hex SHA-256 of v's JSON encoding.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(b)
}

// hashSink folds every trace event, in emission order, into a SHA-256.
type hashSink struct {
	h   hash.Hash
	buf []byte
}

func (s *hashSink) Emit(e obs.Event) {
	s.buf = e.AppendJSON(s.buf[:0])
	s.h.Write(s.buf)
}

// configName renders a scheme ±AP cell, e.g. "dom+ap".
func configName(s sim.Scheme, ap bool) string {
	if ap {
		return s.String() + "+ap"
	}
	return s.String()
}

// resultMatrix computes every pinned digest:
//   - result/<workload>/<config>: the sim.Result of each registry scheme
//     ±AP on each kernel at ScaleTest, capped at matrixMaxInsts;
//   - events/<config>: the full trace-event stream of one kernel under
//     each registry scheme with doppelganger loads;
//   - gadget/<seed>/<config>: the full-lattice observations of both
//     secrets of one leakcheck gadget per seed, under a registry cell
//     chosen round-robin by seed;
//   - micro/<kernel>/<config>: the µarch digest (Observation.Micro) of
//     each of microKernels under each registry cell, capped at
//     eventsMaxInsts;
//   - gadget-all/<seed>/<config>: the observations of the first
//     gadgetAllSeeds gadgets under every registry cell, plus, suffixed
//     /primed, the mutation gauntlet's primed variants under cleanup±AP;
//   - checkpoint/<workload>/<config>: the checkpoint digest of each kernel
//     warmed pinnedCkptWarmup instructions under each registry cell on a
//     core with small caches and a two-entry MSHR file, whose image lists
//     the MSHR file exactly as the run left it.
func resultMatrix(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	ctx := context.Background()
	type cell struct {
		scheme sim.Scheme
		ap     bool
	}
	var cells []cell
	for _, s := range sim.AllSchemes() {
		cells = append(cells, cell{s, false}, cell{s, true})
	}
	for _, w := range sim.Workloads() {
		p := w.Build(sim.ScaleTest)
		for _, c := range cells {
			res, err := sim.Run(p, sim.Config{Scheme: c.scheme, AddressPrediction: c.ap, MaxInsts: matrixMaxInsts})
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, configName(c.scheme, c.ap), err)
			}
			out[fmt.Sprintf("result/%s/%s", w.Name, configName(c.scheme, c.ap))] = jsonDigest(t, res)
		}
	}
	w, ok := sim.WorkloadByName("stream")
	if !ok {
		t.Fatal("no stream workload")
	}
	p := w.Build(sim.ScaleTest)
	for _, s := range sim.AllSchemes() {
		sink := &hashSink{h: sha256.New()}
		cfg := sim.Config{Scheme: s, AddressPrediction: true, MaxInsts: eventsMaxInsts}
		if _, err := sim.RunContext(ctx, p, cfg, sim.WithTracer(sink)); err != nil {
			t.Fatalf("events %s: %v", s, err)
		}
		out["events/"+configName(s, true)] = hex.EncodeToString(sink.h.Sum(nil))
	}
	for seed := int64(0); seed < gadgetSeeds; seed++ {
		c := cells[int(seed)%len(cells)]
		g := leakcheck.Generate(seed)
		simCfg := leakcheck.Config{Scheme: c.scheme, AP: c.ap}.SimConfig(g)
		var pair [2]sim.Observation
		for i, secret := range []uint8{g.SecretA, g.SecretB} {
			if _, err := sim.RunContext(ctx, g.Build(secret), simCfg, sim.Observe(&pair[i])); err != nil {
				t.Fatalf("gadget %d: %v", seed, err)
			}
		}
		out[fmt.Sprintf("gadget/%d/%s", seed, configName(c.scheme, c.ap))] = jsonDigest(t, pair)
	}
	for _, name := range microKernels {
		w, ok := sim.WorkloadByName(name)
		if !ok {
			t.Fatalf("no %s workload", name)
		}
		p := w.Build(sim.ScaleTest)
		for _, c := range cells {
			var o sim.Observation
			cfg := sim.Config{Scheme: c.scheme, AddressPrediction: c.ap, MaxInsts: eventsMaxInsts}
			if _, err := sim.RunContext(ctx, p, cfg, sim.Observe(&o)); err != nil {
				t.Fatalf("micro %s %s: %v", name, configName(c.scheme, c.ap), err)
			}
			out[fmt.Sprintf("micro/%s/%s", name, configName(c.scheme, c.ap))] = jsonDigest(t, o.Micro)
		}
	}
	var primeMut secure.Mutation
	for _, m := range secure.Mutations() {
		if s, _ := m.Target(); s.UndoesSpeculation() {
			primeMut = m
			break
		}
	}
	gadgetPair := func(g leakcheck.Params, c cell) string {
		simCfg := leakcheck.Config{Scheme: c.scheme, AP: c.ap}.SimConfig(g)
		var pair [2]sim.Observation
		for i, secret := range []uint8{g.SecretA, g.SecretB} {
			if _, err := sim.RunContext(ctx, g.Build(secret), simCfg, sim.Observe(&pair[i])); err != nil {
				t.Fatalf("gadget %d %s: %v", g.Seed, configName(c.scheme, c.ap), err)
			}
		}
		return jsonDigest(t, pair)
	}
	for _, w := range sim.Workloads() {
		p := w.Build(sim.ScaleTest)
		cc := sim.DefaultCoreConfig()
		cc.Memory.L1D.SizeBytes, cc.Memory.L1D.Ways = 4096, 2
		cc.Memory.L2.SizeBytes = 64 << 10 // small levels keep the images cheap
		cc.Memory.L3.SizeBytes = 512 << 10
		cc.Memory.L1MSHRs = 2
		for _, c := range cells {
			ck, err := sim.Snapshot(p, sim.Config{Scheme: c.scheme, AddressPrediction: c.ap, Core: &cc}, pinnedCkptWarmup)
			if err != nil {
				t.Fatalf("checkpoint %s %s: %v", w.Name, configName(c.scheme, c.ap), err)
			}
			out[fmt.Sprintf("checkpoint/%s/%s", w.Name, configName(c.scheme, c.ap))] = ck.Digest()
		}
	}
	for seed := int64(0); seed < gadgetAllSeeds; seed++ {
		for _, c := range cells {
			out[fmt.Sprintf("gadget-all/%d/%s", seed, configName(c.scheme, c.ap))] = gadgetPair(leakcheck.Generate(seed), c)
			if c.scheme.UndoesSpeculation() {
				out[fmt.Sprintf("gadget-all/%d/%s/primed", seed, configName(c.scheme, c.ap))] =
					gadgetPair(leakcheck.GauntletParams(seed, primeMut), c)
			}
		}
	}
	return out
}

// TestResultMatrixGolden pins the simulator's cycle-exact behaviour: every
// Result field (cycles, every Stats and memory counter), the order and
// content of trace events, and contract observations. Architectural
// checksums alone cannot catch a timing change; this can.
func TestResultMatrixGolden(t *testing.T) {
	got := resultMatrix(t)
	if *updateResultMatrix {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(resultMatrixFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultMatrixFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(resultMatrixFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got[k] != want[k] {
			bad++
			if bad <= 20 {
				t.Errorf("%s: got %.16s, golden %.16s", k, got[k], want[k])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d pinned digests differ", bad, len(keys))
	}
}
