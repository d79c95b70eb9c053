package main

import (
	"fmt"
	"io"
	"time"

	"doppelganger/internal/engine"
	"doppelganger/internal/harness"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// figures-cold runs the matrix cmd/figures runs by default — full-scale
// kernels × {unsafe, nda-p, stt, dom, cleanup} × ±AP, verified against the
// reference interpreter — in fresh processes with empty result caches. Its
// time is the pipeline/mem/predictor inner loop on L3- and DRAM-sized
// working sets, the Cleanup journal included. The matrix is fixed by the
// paper, so the workload ignores the seed.
//
// One full-scale matrix takes 35-44 s on 2 workers, too long for a run, so
// a run covers 13 of the 14 kernels, split into the groups below, one
// process each. Each group is about 11 s of CPU on the reference host
// (measured per kernel over its 10 cells). pointer_chase is left out: its
// 10 cells take 34 s of CPU, four fifths of what the other 13 kernels take
// together.
var figuresGroups = [][]string{
	{"stream"},
	{"stencil", "md_particles", "random_walk"},
	{"sparse_spmv", "scan_match", "graph_path"},
	{"compile_ir", "hash_irregular", "tree_search", "event_queue", "matrix_blocked", "compress"},
}

// matrixSchemes is the harness's scheme order: the unsafe baseline first.
var matrixSchemes = append([]secure.Scheme{secure.Unsafe}, harness.Schemes...)

// refInsts bounds the reference interpretation, as the harness does.
const refInsts = 100_000_000

// matrixKeys lists the cells in harness order.
func matrixKeys(names []string) []harness.Key {
	var keys []harness.Key
	for _, n := range names {
		for _, s := range matrixSchemes {
			for _, ap := range []bool{false, true} {
				keys = append(keys, harness.Key{Workload: n, Scheme: s, AP: ap})
			}
		}
	}
	return keys
}

func matrixDigest(keys []harness.Key, results map[harness.Key]sim.Result) string {
	d := newDigester()
	for _, k := range keys {
		d.add(fmt.Sprintf("%s/%v/%v", k.Workload, k.Scheme, k.AP), results[k])
	}
	return d.sum()
}

// matrixCell is one cell as a process under test reports it, so that the
// run can check the paper's claims over the matrix its parts make up.
type matrixCell struct {
	Key    harness.Key `json:"key"`
	Result sim.Result  `json:"result"`
}

// figuresKernels returns the kernels a process simulates: its part's
// group, or every group of the run for the traced pass (part -1).
func figuresKernels(sz sizes, part int) []string {
	if part >= 0 {
		return sz.groups[part]
	}
	var all []string
	for _, g := range sz.groups[:sz.parts] {
		all = append(all, g...)
	}
	return all
}

func figuresChild(o options, ready func(), stderr io.Writer) (*childReport, error) {
	sz := sizesFor(o)
	// Set-up builds every kernel of the run and the reference checksums the
	// outputs must match, whichever part the process does, so that every
	// process sets up alike.
	all := figuresKernels(sz, -1)
	refs := make(map[string]uint64, len(all))
	for _, n := range all {
		w, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
		st := sim.Interpret(w.Build(sz.scale), refInsts)
		if !st.Halted {
			return nil, fmt.Errorf("%s: reference run did not halt", n)
		}
		refs[n] = st.Checksum()
	}
	ready()
	if o.setupOnly {
		return nil, nil
	}

	rep := &childReport{}
	names := figuresKernels(sz, o.part)
	keys := matrixKeys(names)
	if o.trace {
		return rep, figuresTraced(o, sz, names, keys, refs, rep, stderr)
	}
	t := time.Now()
	m, err := harness.Run(harness.Options{Scale: sz.scale, Workloads: names, Verify: true, Parallelism: workers})
	wall := time.Since(t)
	rep.Ops, rep.WorkS, rep.OpMS = len(keys), wall.Seconds(), []float64{ms(wall)}
	if err != nil {
		rep.fail(len(keys), "harness.Run: %v", err)
		return rep, nil
	}
	checkMatrix(rep, keys, refs, m.Results)
	rep.Digests = []string{matrixDigest(keys, m.Results)}
	for _, k := range keys {
		rep.Cells = append(rep.Cells, matrixCell{k, m.Results[k]})
	}
	return rep, nil
}

// checkMatrix fails every cell that is missing or whose architectural
// state differs from the reference interpreter's.
func checkMatrix(rep *childReport, keys []harness.Key, refs map[string]uint64, results map[harness.Key]sim.Result) {
	for _, k := range keys {
		r, ok := results[k]
		switch {
		case !ok:
			rep.fail(1, "%s/%v/ap=%v: no result", k.Workload, k.Scheme, k.AP)
		case r.Checksum != refs[k.Workload]:
			rep.fail(1, "%s/%v/ap=%v: checksum %x, reference %x", k.Workload, k.Scheme, k.AP, r.Checksum, refs[k.Workload])
		}
	}
}

// checkShape fails the outcome for every claim of the paper the run's
// matrix breaks. The claims hold over the suite, not over any one group,
// so a run checks them only when its parts cover every group.
func checkShape(out *outcome, sz sizes, cells []matrixCell) {
	if !sz.shape {
		return
	}
	m := &harness.Matrix{Workloads: figuresKernels(sz, -1), Results: make(map[harness.Key]sim.Result, len(cells))}
	for _, c := range cells {
		m.Results[c.Key] = c.Result
	}
	for _, c := range harness.CheckShape(m) {
		if !c.Pass {
			out.failed++
			out.fail("shape check %s: %s (measured %s)", c.Name, c.Claim, c.Detail)
		}
	}
}

// cellRun is one decomposed matrix cell.
type cellRun struct {
	res   sim.Result
	runNS int64
	err   error
}

// runCell simulates one cell as the engine does, a span per call: build
// the core, run it to completion, summarize it.
func runCell(rec *recorder, op int64, p *sim.Program, cfg sim.Config) cellRun {
	id, start := rec.id(), time.Now()
	defer func() { rec.add(id, 0, op, "harness.cell", start, time.Now()) }()
	var c *sim.Core
	var cr cellRun
	rec.time(id, op, "sim.NewCore", func() { c, cr.err = sim.NewCore(p, cfg) })
	if cr.err != nil {
		return cr
	}
	cr.runNS = rec.time(id, op, "pipeline.Core.Run", func() { cr.err = c.Run(cfg.MaxInsts, sim.DefaultMaxCycles) }).Nanoseconds()
	if cr.err != nil {
		return cr
	}
	rec.time(id, op, "sim.Summarize", func() { cr.res = sim.Summarize(p, cfg, c) })
	return cr
}

// figuresTraced runs every group's kernels as one matrix through
// harness.Run untraced, then decomposed into public calls with a span
// around each at the same parallelism. The decomposition must reproduce
// every cell exactly.
func figuresTraced(o options, sz sizes, names []string, keys []harness.Key, refs map[string]uint64,
	rep *childReport, stderr io.Writer) error {
	eng := engine.New(engine.Options{Workers: workers})
	t := time.Now()
	m, err := harness.Run(harness.Options{Scale: sz.scale, Workloads: names, Verify: true, Engine: eng})
	wallU := time.Since(t)
	est := eng.Stats()
	eng.Close()
	if err != nil {
		return fmt.Errorf("harness.Run: %w", err)
	}

	rec := newRecorder()
	t = time.Now()
	progs := make([]*sim.Program, len(names))
	refSums := make([]uint64, len(names))
	parallel(len(names), workers, func(i int) {
		op := int64(i + 1)
		w, _ := workload.ByName(names[i])
		rec.time(0, op, "workload.Build", func() { progs[i] = w.Build(sz.scale) })
		rec.time(0, op, "program.Interpret", func() { refSums[i] = sim.Interpret(progs[i], refInsts).Checksum() })
	})
	progOf := make(map[string]*sim.Program, len(names))
	for i, n := range names {
		progOf[n] = progs[i]
		if refSums[i] != refs[n] {
			rep.fail(1, "%s: traced reference checksum %x, set-up %x", n, refSums[i], refs[n])
		}
	}
	cells := make([]cellRun, len(keys))
	parallel(len(keys), workers, func(i int) {
		k := keys[i]
		cells[i] = runCell(rec, int64(len(names)+1+i), progOf[k.Workload],
			sim.Config{Scheme: k.Scheme, AddressPrediction: k.AP})
	})
	wallD := time.Since(t)

	dec := make(map[harness.Key]sim.Result, len(keys))
	ag := newRunAggregate()
	undoRatio := make(map[string][2]float64) // kernel -> {cleanup ns, unsafe ns}
	for i, k := range keys {
		c := cells[i]
		if c.err != nil {
			rep.fail(1, "%s/%v/ap=%v: %v", k.Workload, k.Scheme, k.AP, c.err)
			continue
		}
		dec[k] = c.res
		if c.res != m.Results[k] {
			rep.fail(1, "%s/%v/ap=%v: decomposed result differs from harness.Run", k.Workload, k.Scheme, k.AP)
		}
		ag.add(k.Scheme, c.res, c.runNS)
		r := undoRatio[k.Workload]
		switch k.Scheme {
		case secure.Cleanup:
			r[0] += float64(c.runNS)
		case secure.Unsafe:
			r[1] += float64(c.runNS)
		}
		undoRatio[k.Workload] = r
	}
	checkMatrix(rep, keys, refs, dec)
	rep.Ops, rep.WorkS, rep.OpMS = len(keys), wallD.Seconds(), []float64{ms(wallD)}
	// One digest per group, as the untraced parts print them.
	for _, g := range sz.groups[:sz.parts] {
		rep.Digests = append(rep.Digests, matrixDigest(matrixKeys(g), dec))
	}
	for _, k := range keys {
		rep.Cells = append(rep.Cells, matrixCell{k, dec[k]})
	}

	L := ag.metrics()
	L["workload.build_ms"] = sum(rec.durations("workload.Build"))
	L["program.interpret_ms"] = sum(rec.durations("program.Interpret"))
	var ratios []float64
	for _, r := range undoRatio {
		if r[1] > 0 {
			ratios = append(ratios, r[0]/r[1])
		}
	}
	L["mem.undo_cpu_ratio"] = harness.Geomean(ratios)
	L["engine.utilization"] = est.SimWall.Seconds() / (workers * wallU.Seconds())
	if est.JobsRun > 0 {
		L["engine.job_ms"] = ms(est.SimWall) / float64(est.JobsRun)
	}
	if est.Submitted > 0 {
		L["engine.cache_hit_ratio"] = float64(est.CacheHits) / float64(est.Submitted)
	}
	L["trace.overhead_ratio"] = wallD.Seconds() / wallU.Seconds()
	jobs := make([]engine.Job, len(keys))
	for i, k := range keys {
		jobs[i] = engine.Job{Program: progOf[k.Workload], Config: sim.Config{Scheme: k.Scheme, AddressPrediction: k.AP}}
	}
	L["engine.key_us"] = probeKeys(jobs)

	// Sub-layer probes on the run's own inputs. Each kernel's trace is
	// replayed as soon as it is captured, so only one is held at a time.
	probeProg := progOf[names[len(names)-1]]
	if p, ok := progOf["stream"]; ok {
		probeProg = p
	}
	if L["sim.newcore_ms"], L["sim.newcore_alloc_mb"], err = probeNewCore(probeProg, sim.Config{}, sz.probeN); err != nil {
		return err
	}
	var memNS, predNS time.Duration
	var agree, accesses, loads int
	for _, n := range names {
		events, err := captureMemTrace(progOf[n], sim.Config{Scheme: sim.Unsafe, AddressPrediction: true})
		if err != nil {
			return err
		}
		per, a, tot := replayMem(events)
		memNS += per * time.Duration(tot)
		agree, accesses = agree+a, accesses+tot
		perLoad, nl := replayPredictor(events)
		predNS += perLoad * time.Duration(nl)
		loads += nl
	}
	if accesses > 0 {
		L["mem.access_ns"] = float64(memNS.Nanoseconds()) / float64(accesses)
		L["mem.replay_agreement"] = float64(agree) / float64(accesses)
	}
	if loads > 0 {
		L["predictor.lookup_ns"] = float64(predNS.Nanoseconds()) / float64(loads)
	}
	extra, depth, err := probeUndo(probeProg)
	if err != nil {
		return err
	}
	L["mem.undo_alloc_mb"], L["mem.undo_depth_max"] = extra, float64(depth)
	rep.Layer = L
	return finishTrace(o, rec, stderr)
}

// finishTrace writes the run's spans and prints its self-time table.
func finishTrace(o options, rec *recorder, stderr io.Writer) error {
	rec.writeSelfTable(stderr)
	return rec.write(spansPath(o))
}

func spansPath(o options) string {
	return fmt.Sprintf("%s/%s.spans.jsonl", o.spansDir, o.workload)
}
