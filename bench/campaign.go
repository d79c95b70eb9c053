package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"doppelganger/internal/campaign"
	"doppelganger/internal/engine"
	"doppelganger/internal/leakcheck"
	"doppelganger/sim"
)

// campaign runs campaign.Run with the default configs (the paper's schemes
// ±AP, no Cleanup), a file-backed corpus and a private 2-worker engine. It
// is the write path: corpus appends run alongside engine batches, coverage
// hashing, the scheduler and leakcheck.Minimize. A fixed seed makes the
// whole campaign deterministic.

// batchLog is the format of campaign.Run's once-per-batch progress line;
// its arrivals mark the batch boundaries.
const batchLog = "campaign: %d/%d evals"

// A run is several sessions on one corpus, each resuming where the last
// stopped, as the nightly campaign job extends its corpus. Each untraced
// session is a fresh process with a fresh engine; the traced pass runs them
// all in one process, still with a fresh engine each.
func campaignChild(o options, ready func(), stderr io.Writer) (*childReport, error) {
	sz := sizesFor(o)
	path := filepath.Join(o.workDir, "corpus.dgcf")
	sessions := []int{o.part}
	if o.part < 0 {
		sessions = sessions[:0]
		for p := 0; p < sz.parts; p++ {
			sessions = append(sessions, p)
		}
	}
	eng := engine.New(engine.Options{Workers: workers})
	ready()
	if o.setupOnly {
		eng.Close()
		return nil, nil
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	rep := &childReport{}
	var est engine.Stats
	var last *campaign.Summary
	newLeaks, dupLeaks := 0, 0
	start := time.Now()
	for i := range sessions {
		if i > 0 {
			eng = engine.New(engine.Options{Workers: workers})
		}
		sum, err := campaignSession(o, sz, path, eng, rec, rep)
		s := eng.Stats()
		eng.Close()
		if err != nil {
			return nil, err
		}
		est.SimWall += s.SimWall
		est.JobsRun += s.JobsRun
		est.Submitted += s.Submitted
		est.CacheHits += s.CacheHits
		newLeaks, dupLeaks = newLeaks+sum.NewLeaks, dupLeaks+sum.DupLeaks
		last = sum
	}
	wall := time.Since(start)
	rep.WorkS = wall.Seconds()
	if !o.trace {
		return rep, nil
	}

	L := map[string]float64{
		"engine.utilization":   est.SimWall.Seconds() / (workers * wall.Seconds()),
		"engine.batch_ms":      median(rep.OpMS),
		"campaign.cells":       float64(last.Cells),
		"campaign.fresh_ratio": float64(last.CorpusInputs) / float64(rep.Ops),
		"trace.overhead_ratio": 1 + rec.cost.Seconds()/wall.Seconds(),
	}
	if est.JobsRun > 0 {
		L["engine.job_ms"] = ms(est.SimWall) / float64(est.JobsRun)
	}
	if est.Submitted > 0 {
		L["engine.cache_hit_ratio"] = float64(est.CacheHits) / float64(est.Submitted)
	}
	if n := newLeaks + dupLeaks; n > 0 {
		L["campaign.dup_leak_ratio"] = float64(dupLeaks) / float64(n)
	}
	if err := probeCorpus(L, o, sz, path); err != nil {
		return nil, err
	}
	rep.Layer = L
	return rep, finishTrace(o, rec, stderr)
}

// campaignSession runs one session, timing each batch (and spanning it when
// rec is non-nil), checks its outputs and adds them to the report.
func campaignSession(o options, sz sizes, path string, eng *engine.Engine, rec *recorder,
	rep *childReport) (*campaign.Summary, error) {
	last := time.Now()
	logf := func(format string, _ ...any) {
		if !strings.HasPrefix(format, batchLog) {
			return
		}
		now := time.Now()
		rep.OpMS = append(rep.OpMS, ms(now.Sub(last)))
		if rec != nil {
			rec.add(rec.id(), 0, int64(len(rep.OpMS)), "campaign.batch", last, now)
		}
		last = now
	}
	sum, err := campaign.Run(context.Background(), campaign.Options{
		Budget: sz.budget, Seed: o.seed, CorpusPath: path, Engine: eng, Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("campaign.Run: %w", err)
	}
	rep.Ops += sum.Evals
	for _, l := range sum.Leaks {
		if l.Config.Secure() {
			rep.fail(1, "campaign leak under secure config %s (%s)", l.Config, l.Params)
		}
	}
	checkCorpus(rep, path, sum)
	d := newDigester()
	d.add("summary", sum)
	rep.Digests = append(rep.Digests, d.sum())
	return sum, nil
}

// checkCorpus reopens the corpus the campaign wrote and fails the report
// unless it holds exactly what the summary says.
func checkCorpus(rep *childReport, path string, sum *campaign.Summary) {
	c, err := campaign.OpenCorpus(path)
	if err != nil {
		rep.fail(1, "reopening the corpus: %v", err)
		return
	}
	defer c.Close()
	if len(c.Inputs) != sum.CorpusInputs || len(c.Leaks) != len(sum.Leaks) {
		rep.fail(1, "reopened corpus holds %d inputs and %d leaks, the summary %d and %d",
			len(c.Inputs), len(c.Leaks), sum.CorpusInputs, len(sum.Leaks))
		return
	}
	keys := make(map[string]bool, len(c.Leaks))
	for _, l := range c.Leaks {
		keys[l.Key] = true
	}
	for _, l := range sum.Leaks {
		if !keys[l.Key] {
			rep.fail(1, "summary leak %s is not in the reopened corpus", l.Key)
		}
	}
}

// probeCorpus costs the campaign's bookkeeping layers on the corpus the run
// wrote: the scheduler, the coverage map, corpus appends, job keys and core
// set-up for its genomes.
func probeCorpus(L map[string]float64, o options, sz sizes, path string) error {
	c, err := campaign.OpenCorpus(path)
	if err != nil {
		return err
	}
	defer c.Close()
	if len(c.Inputs) == 0 {
		return fmt.Errorf("the campaign stored no inputs")
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	L["campaign.corpus_bytes"] = float64(fi.Size())
	perInput := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(len(c.Inputs)) }

	sched := campaign.NewScheduler(o.seed)
	t := time.Now()
	for _, in := range c.Inputs {
		sched.Add(in.Params, len(in.Cells))
		sched.Next()
	}
	L["campaign.sched_us"] = perInput(time.Since(t))

	cov := campaign.NewMap()
	t = time.Now()
	for _, in := range c.Inputs {
		cov.Add(in.Cells)
	}
	L["campaign.coverage_us"] = perInput(time.Since(t))

	copyPath := path + ".probe"
	defer os.Remove(copyPath)
	fresh, err := campaign.OpenCorpus(copyPath)
	if err != nil {
		return err
	}
	t = time.Now()
	for _, in := range c.Inputs {
		if _, err := fresh.AddInput(in); err != nil {
			fresh.Close()
			return err
		}
	}
	for _, l := range c.Leaks {
		if _, err := fresh.AddLeak(l); err != nil {
			fresh.Close()
			return err
		}
	}
	L["campaign.corpus_append_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(c.Inputs)+len(c.Leaks))
	if err := fresh.Close(); err != nil {
		return err
	}

	cfgs := leakcheck.DefaultConfigs()
	var jobs []engine.Job
	for _, in := range c.Inputs[:min(32, len(c.Inputs))] {
		g := in.Params
		pa, pb := g.Build(g.SecretA), g.Build(g.SecretB)
		for _, cfg := range cfgs {
			sc := cfg.SimConfig(g)
			jobs = append(jobs, engine.Job{Program: pa, Config: sc, Observe: sim.Lattice()},
				engine.Job{Program: pb, Config: sc, Observe: sim.Lattice()})
		}
	}
	L["engine.key_us"] = probeKeys(jobs)
	g := c.Inputs[0].Params
	L["sim.newcore_ms"], L["sim.newcore_alloc_mb"], err = probeNewCore(g.Build(g.SecretA), cfgs[0].SimConfig(g), sz.probeN)
	return err
}
