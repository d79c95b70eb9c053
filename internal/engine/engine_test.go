package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"doppelganger/internal/workload"
	"doppelganger/sim"
)

func testProgram(t *testing.T, name string) *sim.Program {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w.Build(workload.ScaleTest)
}

// spinProgram runs forever (a branch to itself); only a cycle bound or a
// cancellation stops it.
func spinProgram(t *testing.T) *sim.Program {
	t.Helper()
	p, err := sim.Assemble("spin", "loop:\n  beq r0, r0, loop\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKeyStability(t *testing.T) {
	prog := testProgram(t, "stream")
	base := Job{Program: prog, Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true}}
	if base.Key() != base.Key() {
		t.Fatal("key is not deterministic across calls")
	}
	if got := (Job{Program: prog, Config: base.Config, Timeout: time.Hour}).Key(); got != base.Key() {
		t.Error("timeout must not contribute to the key")
	}

	// A nil Core must hash like an explicitly spelled-out default.
	def := sim.DefaultCoreConfig()
	explicit := Job{Program: prog, Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true, Core: &def}}
	if explicit.Key() != base.Key() {
		t.Error("explicit default core config should hash identically to nil")
	}

	mutations := map[string]Job{
		"scheme":    {Program: prog, Config: sim.Config{Scheme: sim.STT, AddressPrediction: true}},
		"ap":        {Program: prog, Config: sim.Config{Scheme: sim.DoM}},
		"max_insts": {Program: prog, Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true, MaxInsts: 1000}},
		"max_cycles": {Program: prog, Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true,
			MaxCycles: 1 << 30}},
		"program": {Program: testProgram(t, "pointer_chase"),
			Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true}},
	}
	cc := sim.DefaultCoreConfig()
	cc.ROBSize++
	mutations["core_field"] = Job{Program: prog,
		Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true, Core: &cc}}

	seen := map[Key]string{base.Key(): "base"}
	for name, j := range mutations {
		k := j.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

func TestCacheHitAndStats(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	job := Job{Program: testProgram(t, "matrix_blocked"), Config: sim.Config{Scheme: sim.NDAP}}
	first, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached result differs from the original")
	}
	st := e.Stats()
	if st.JobsRun != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = run %d, hits %d, misses %d; want 1, 1, 1",
			st.JobsRun, st.CacheHits, st.CacheMisses)
	}
	if st.SimCycles != first.Cycles {
		t.Errorf("SimCycles = %d, want %d", st.SimCycles, first.Cycles)
	}
	if st.CacheEntries != 1 {
		t.Errorf("CacheEntries = %d, want 1", st.CacheEntries)
	}
}

// TestParallelMatchesSerial is the determinism guarantee: a pool of N
// workers must reproduce sim.Run exactly, field for field.
func TestParallelMatchesSerial(t *testing.T) {
	prog := testProgram(t, "tree_search")
	var jobs []Job
	for _, s := range []sim.Scheme{sim.Unsafe, sim.DoM} {
		for _, ap := range []bool{false, true} {
			jobs = append(jobs, Job{Program: prog, Config: sim.Config{Scheme: s, AddressPrediction: ap}})
		}
	}
	e := New(Options{Workers: 4})
	defer e.Close()
	parallel, err := e.RunBatch(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		serial, err := sim.Run(j.Program, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel[i]) {
			t.Errorf("job %d (%v ap=%v): parallel result diverges from serial\nserial:   %+v\nparallel: %+v",
				i, j.Config.Scheme, j.Config.AddressPrediction, serial, parallel[i])
		}
	}
}

func TestRunBatchOrderedCallbacks(t *testing.T) {
	prog := testProgram(t, "stream")
	var jobs []Job
	for _, s := range []sim.Scheme{sim.Unsafe, sim.NDAP, sim.STT, sim.DoM} {
		for _, ap := range []bool{false, true} {
			jobs = append(jobs, Job{Program: prog, Config: sim.Config{Scheme: s, AddressPrediction: ap}})
		}
	}
	e := New(Options{Workers: 4})
	defer e.Close()
	var order []int
	if _, err := e.RunBatch(context.Background(), jobs, func(i int, _ sim.Result, err error) {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
		order = append(order, i)
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("callback order = %v, want ascending indices", order)
		}
	}
	if len(order) != len(jobs) {
		t.Fatalf("%d callbacks for %d jobs", len(order), len(jobs))
	}
}

// TestCancellationStopsQueuedJobs submits more eternal jobs than workers
// and cancels: submissions must return promptly and queued jobs must not
// simulate after the running one settles.
func TestCancellationStopsQueuedJobs(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	spin := spinProgram(t)
	ctx, cancel := context.WithCancel(context.Background())

	const n = 4
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		// Distinct MaxInsts values defeat key-based coalescing so the
		// queue really holds distinct jobs.
		job := Job{Program: spin, Config: sim.Config{MaxInsts: uint64(1 << 40 << i)}}
		go func() {
			_, err := e.Submit(ctx, job)
			errc <- err
		}()
	}

	time.Sleep(50 * time.Millisecond) // let the worker start spinning
	cancel()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("submit error = %v, want context.Canceled", err)
			}
		case <-deadline:
			t.Fatal("cancelled submissions did not return promptly")
		}
	}
	if st := e.Stats(); st.JobsRun != 0 {
		t.Errorf("%d jobs ran to completion despite cancellation", st.JobsRun)
	}
}

func TestJobTimeout(t *testing.T) {
	e := New(Options{Workers: 1, JobTimeout: 50 * time.Millisecond})
	defer e.Close()
	_, err := e.Submit(context.Background(), Job{Program: spinProgram(t)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if st := e.Stats(); st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
}

func TestCycleLimitError(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	_, err := e.Submit(context.Background(), Job{
		Program: spinProgram(t),
		Config:  sim.Config{MaxCycles: 10 << 16},
	})
	if err == nil || !strings.Contains(err.Error(), "cycle limit") {
		t.Fatalf("error = %v, want cycle-limit error", err)
	}
}

func TestInflightCoalescing(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	job := Job{Program: testProgram(t, "hash_irregular"), Config: sim.Config{Scheme: sim.STT}}
	const n = 4
	results := make(chan sim.Result, n)
	for i := 0; i < n; i++ {
		go func() {
			r, err := e.Submit(context.Background(), job)
			if err != nil {
				t.Error(err)
			}
			results <- r
		}()
	}
	var first sim.Result
	for i := 0; i < n; i++ {
		r := <-results
		if i == 0 {
			first = r
		} else if !reflect.DeepEqual(first, r) {
			t.Error("coalesced submissions returned different results")
		}
	}
	st := e.Stats()
	if st.JobsRun+st.Coalesced+st.CacheHits != n || st.JobsRun < 1 {
		t.Errorf("stats = %+v: want %d submissions accounted for with >= 1 run", st, n)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := NewLRU[Key, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // promotes a
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for k, want := range map[Key]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%s) = %d, %v; want %d, true", k, v, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	c.Put("a", 10) // refresh in place
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Errorf("refreshed a = %d (len %d), want 10 (len 2)", v, c.Len())
	}
	off := NewLRU[Key, int](0)
	off.Put("a", 1)
	if _, ok := off.Get("a"); ok || off.Len() != 0 {
		t.Error("a zero-capacity LRU cached an entry")
	}
}

func TestSubmitNilProgram(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, err := e.Submit(context.Background(), Job{}); err == nil {
		t.Fatal("nil program should fail")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()
	_, err := e.Submit(context.Background(), Job{Program: spinProgram(t)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("error = %v, want ErrClosed", err)
	}
}

// TestCheckpointJob exercises the warm-start path through the engine: a
// checkpoint-bearing job restores instead of cold-starting, reproduces the
// cold run's architectural result, and caches under its own key.
func TestCheckpointJob(t *testing.T) {
	prog := testProgram(t, "stream")
	ck, err := sim.Snapshot(prog, sim.Config{}, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	defer e.Close()

	cfg := sim.Config{Scheme: sim.STT, AddressPrediction: true}
	cold, err := e.Submit(context.Background(), Job{Program: prog, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Submit(context.Background(), Job{Program: prog, Config: cfg, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Checksum != cold.Checksum || warm.Insts != cold.Insts {
		t.Errorf("warm-started job diverged architecturally: cold %+v, warm %+v", cold, warm)
	}
	if st := e.Stats(); st.JobsRun != 2 {
		t.Errorf("JobsRun = %d, want 2 — the warm and cold jobs must not share a cache entry", st.JobsRun)
	}
	// Resubmitting the warm job is a cache hit.
	if _, err := e.Submit(context.Background(), Job{Program: prog, Config: cfg, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JobsRun != 2 || st.CacheHits != 1 {
		t.Errorf("stats after resubmit = run %d, hits %d; want 2, 1", st.JobsRun, st.CacheHits)
	}
}

// TestObservedJobsSplitOnSecrets submits two observed jobs whose programs
// differ only in their secret labels. The arch-public digest excludes
// secret-derived state, so the two observations differ when run directly,
// and the engine must not hand the second job the first one's.
func TestObservedJobsSplitOnSecrets(t *testing.T) {
	build := func(secrets []sim.SecretRegion) *sim.Program {
		p, err := sim.Assemble("secret-load", "loadi r1, 64\n  load r2, [r1]\n  halt\n")
		if err != nil {
			t.Fatal(err)
		}
		p.InitMem = map[uint64]int64{64: 7}
		p.Secrets = secrets
		return p
	}
	public := build(nil)
	labelled := build([]sim.SecretRegion{{Base: 64, Len: 8}})
	cfg := sim.Config{Scheme: sim.Unsafe}

	var direct [2]sim.Observation
	for i, p := range []*sim.Program{public, labelled} {
		if _, err := sim.RunContext(context.Background(), p, cfg, sim.Observe(&direct[i], sim.ArchSeq)); err != nil {
			t.Fatal(err)
		}
	}
	if len(direct[0].DiffAll(&direct[1])) == 0 {
		t.Fatal("the secret label did not change the direct observation; the test shows nothing")
	}

	e := New(Options{Workers: 1})
	defer e.Close()
	var served [2]sim.Observation
	for i, p := range []*sim.Program{public, labelled} {
		_, obs, err := e.SubmitObserved(context.Background(), Job{Program: p, Config: cfg, Observe: []sim.Clause{sim.ArchSeq}})
		if err != nil {
			t.Fatal(err)
		}
		served[i] = obs
	}
	if got, want := served[0].DiffAll(&served[1]), direct[0].DiffAll(&direct[1]); !reflect.DeepEqual(got, want) {
		t.Errorf("engine observations differ in %v, direct runs in %v", got, want)
	}
}
