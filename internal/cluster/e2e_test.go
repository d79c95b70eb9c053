package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"doppelganger/api"
	"doppelganger/internal/cluster/store"
	"doppelganger/internal/engine"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// TestAcceptanceClusterSweep is the ISSUE's acceptance scenario end to end:
// a 3-worker cluster runs the full workload × scheme × ±AP matrix with one
// worker killed mid-run, every cell's result is checksum-identical to a
// single-node engine run, and a coordinator restarted on the same store —
// with zero workers registered — serves the identical sweep entirely from
// the persistent tier. The workerless restart is the zero-recomputation
// proof: there is nothing left that could compute.
func TestAcceptanceClusterSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix acceptance sweep skipped in -short mode")
	}
	sweep := api.SweepRequest{Schemes: []string{"all"}, Scale: "test"}
	if raceEnabled {
		// The race detector multiplies simulation cost ~10x; three
		// workloads still cross every scheme, both AP settings, the
		// mid-sweep kill, and the workerless restart.
		sweep.Workloads = workload.Names()[:3]
	}
	cells, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(cells)
	if !raceEnabled && wantCells != 14*len(sim.AllSchemes())*2 {
		t.Fatalf("matrix has %d cells, want %d (suite drifted?)",
			wantCells, 14*len(sim.AllSchemes())*2)
	}

	// Single-node reference: the same jobs through a plain engine, keyed by
	// the canonical cache key the cluster shards and stores by.
	ref := make(map[string]sim.Result, wantCells)
	{
		eng := engine.New(engine.Options{Workers: 2})
		defer eng.Close()
		jobs := make([]engine.Job, wantCells)
		for i, cell := range cells {
			jobs[i] = engine.Job{Program: cell.Program, Config: cell.Config}
		}
		results, err := eng.RunBatch(context.Background(), jobs, nil)
		if err != nil {
			t.Fatalf("single-node reference run: %v", err)
		}
		for i, res := range results {
			ref[string(jobs[i].Key())] = res
		}
	}

	// Cluster run: three workers, persistent store, one worker killed once
	// it has computed at least one cell.
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results.dgrs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	w1 := newTestWorker(t, "w1", 1)
	w2 := newTestWorker(t, "w2", 1)
	w3 := newTestWorker(t, "w3", 1)
	// WorkerTimeout is generous: on a CPU-saturated test box even an idle
	// worker's /healthz reply can be slow, and this scenario's failure
	// detection comes from the dispatch path, not probes (which have their
	// own test).
	c := newTestCoordinator(t, Options{Store: st, DispatchParallel: 4, WorkerTimeout: 10 * time.Second}, w1, w2, w3)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	go func() {
		for w3.served.Load() < 2 { // at least one real dispatch past /healthz
			time.Sleep(time.Millisecond)
		}
		w3.kill()
	}()

	resp, body := postSpec(t, ts.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sum api.SweepSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("bad summary: %v", err)
	}
	if len(sum.Cells) != wantCells || sum.Errors != 0 {
		for _, cell := range sum.Cells {
			if cell.Error != "" {
				t.Logf("cell %s/%s/ap=%v: %s", cell.Workload, cell.Scheme, cell.AP, cell.Error)
			}
		}
		t.Fatalf("cluster sweep: cells=%d errors=%d, want %d complete", len(sum.Cells), sum.Errors, wantCells)
	}
	checkAgainstReference(t, "cluster", cells, sum, ref)

	st2 := c.Stats()
	if len(st2.Workers) != 2 {
		t.Errorf("live workers after kill = %d, want 2 survivors", len(st2.Workers))
	}
	if st2.WorkerFails == 0 {
		t.Error("killed worker was never detected as failed")
	}

	// Restart: a fresh coordinator on the same store with NO workers. Every
	// cell must still be answered, necessarily from the persistent tier.
	c.Close()
	ts.Close()
	c2 := newTestCoordinator(t, Options{Store: st})
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(ts2.Close)

	resp, body = postSpec(t, ts2.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart sweep status %d: %s", resp.StatusCode, body)
	}
	var sum2 api.SweepSummary
	if err := json.Unmarshal(body, &sum2); err != nil {
		t.Fatalf("bad restart summary: %v", err)
	}
	if len(sum2.Cells) != wantCells || sum2.Errors != 0 {
		t.Fatalf("restart sweep: cells=%d errors=%d, want %d complete (workerless, store-only)",
			len(sum2.Cells), sum2.Errors, wantCells)
	}
	if got := sum2.Sources[api.SourceStore]; got != wantCells {
		t.Errorf("restart sources = %v, want all %d cells from %q", sum2.Sources, wantCells, api.SourceStore)
	}
	checkAgainstReference(t, "restart", cells, sum2, ref)
}

// checkAgainstReference asserts every sweep cell matches the single-node
// reference result for the same canonical key, checksum included.
func checkAgainstReference(t *testing.T, phase string, cells []api.SweepJob, sum api.SweepSummary, ref map[string]sim.Result) {
	t.Helper()
	mismatches := 0
	for i, cell := range sum.Cells {
		job := engine.Job{Program: cells[i].Program, Config: cells[i].Config}
		want, ok := ref[string(job.Key())]
		if !ok {
			t.Fatalf("%s: cell %d key %s missing from reference", phase, i, job.Key())
		}
		if cell.Result.Checksum != want.Checksum || cell.Result.Cycles != want.Cycles {
			t.Errorf("%s: cell %s/%s/ap=%v diverged: checksum %#x/%d cycles, reference %#x/%d",
				phase, cell.Workload, cell.Scheme, cell.AP,
				cell.Result.Checksum, cell.Result.Cycles, want.Checksum, want.Cycles)
			if mismatches++; mismatches > 5 {
				t.Fatalf("%s: more than 5 divergent cells; aborting", phase)
			}
		}
	}
}
