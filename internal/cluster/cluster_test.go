package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"doppelganger/api"
	"doppelganger/internal/cluster/store"
	"doppelganger/internal/engine"
	"doppelganger/internal/obs"
)

// newTestStore opens a fresh persistent tier in a temp dir and returns it
// with its path (for corruption tests).
func newTestStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.db")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, path
}

// corruptStoreValue flips a byte inside the first record's value in the
// store's backing file, behind the open handle — Get's read-time checksum
// must catch it.
func corruptStoreValue(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// header(8) + lens(8) + key(64 hex) + a few bytes into the value
	off := 8 + 8 + 64 + 4
	if len(raw) <= off {
		t.Fatalf("store file too short to corrupt (%d bytes)", len(raw))
	}
	raw[off] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func newTestMetrics() *obs.Metrics { return obs.NewMetrics() }

// testWorker is one in-process cluster worker: an engine behind the Worker
// handler plus /healthz, with a kill switch that makes every subsequent
// request abort its connection — indistinguishable from a crashed process
// to the coordinator.
type testWorker struct {
	id     string
	ts     *httptest.Server
	eng    *engine.Engine
	dead   atomic.Bool
	served atomic.Uint64
}

func newTestWorker(t *testing.T, id string, engineWorkers int) *testWorker {
	t.Helper()
	tw := &testWorker{id: id}
	tw.eng = engine.New(engine.Options{Workers: engineWorkers})
	t.Cleanup(tw.eng.Close)
	wk := &Worker{ID: id, Eng: tw.eng}
	mux := http.NewServeMux()
	mux.Handle("POST /internal/v1/execute", wk.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	tw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tw.dead.Load() {
			panic(http.ErrAbortHandler) // sever the connection mid-flight
		}
		tw.served.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(tw.ts.Close)
	return tw
}

// kill makes the worker drop every future connection.
func (tw *testWorker) kill() { tw.dead.Store(true) }

// newTestCoordinator builds a coordinator with fast timeouts and registers
// the given workers directly.
func newTestCoordinator(t *testing.T, opts Options, workers ...*testWorker) *Coordinator {
	t.Helper()
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 50 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c := NewCoordinator(opts)
	t.Cleanup(c.Close)
	for _, tw := range workers {
		c.register(tw.id, tw.ts.URL)
	}
	return c
}

func postSpec(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

var testSpec = api.RunRequest{Workload: "stream", Scale: "test", Scheme: "dom", AP: true}

func TestRunThroughClusterAndMemoryTier(t *testing.T) {
	w1 := newTestWorker(t, "w1", 2)
	c := newTestCoordinator(t, Options{}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	resp, body := postSpec(t, ts.URL+"/v1/run", testSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var run api.RunResult
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("bad response: %v", err)
	}
	if run.Source != api.SourceComputed || run.Worker != "w1" {
		t.Errorf("source = %s/%s, want computed/w1", run.Source, run.Worker)
	}
	if len(run.Key) != 64 || run.Result.Cycles == 0 || run.Result.Checksum == 0 {
		t.Errorf("suspicious result: key=%q cycles=%d", run.Key, run.Result.Cycles)
	}

	// The identical run must be answered by the memory tier, not the worker.
	before := w1.served.Load()
	resp, body = postSpec(t, ts.URL+"/v1/run", testSpec)
	var again api.RunResult
	json.Unmarshal(body, &again)
	if resp.StatusCode != http.StatusOK || again.Source != api.SourceMemory {
		t.Errorf("repeat run: status %d source %s, want 200 memory", resp.StatusCode, again.Source)
	}
	if again.Result.Checksum != run.Result.Checksum {
		t.Error("memory tier returned a different checksum")
	}
	if w1.served.Load() != before {
		t.Error("memory-tier hit still reached the worker")
	}
}

func TestNoWorkersIs503(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	resp, body := postSpec(t, ts.URL+"/v1/run", testSpec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
}

func TestBadSpecIs400(t *testing.T) {
	w1 := newTestWorker(t, "w1", 1)
	c := newTestCoordinator(t, Options{}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	for _, spec := range []api.RunRequest{
		{},                                      // missing workload
		{Workload: "nope", Scale: "test"},       // unknown workload
		{Workload: "stream", Scale: "galactic"}, // unknown scale
		{Workload: "stream", Scheme: "bogus", Scale: "test"}, // unknown scheme
	} {
		resp, body := postSpec(t, ts.URL+"/v1/run", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d (%s), want 400", spec, resp.StatusCode, body)
		}
	}
	// The per-run fields a shared, cached result cannot carry are refused
	// by name, before anything is dispatched.
	for field, spec := range map[string]api.RunRequest{
		"trace":        {Workload: "stream", Scale: "test", Trace: true},
		"trace_events": {Workload: "stream", Scale: "test", TraceEvents: 16},
		"checkpoint":   {Workload: "stream", Scale: "test", Checkpoint: "ckpt-1"},
		"timeout_ms":   {Workload: "stream", Scale: "test", TimeoutMS: 1000},
	} {
		resp, body := postSpec(t, ts.URL+"/v1/run", spec)
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("%s: status %d (%s), want 400 naming the field", field, resp.StatusCode, body)
		}
	}
	if n := w1.served.Load(); n != 0 {
		t.Errorf("refused specs reached the worker %d times, want 0", n)
	}
}

// TestWorkerDeathMidSweepRetriesOnSurvivor is the ISSUE's core failure
// path: a worker that dies mid-sweep is removed, its cells are retried on
// a surviving worker, and the sweep completes with every cell intact.
func TestWorkerDeathMidSweepRetriesOnSurvivor(t *testing.T) {
	w1 := newTestWorker(t, "w1", 2)
	w2 := newTestWorker(t, "w2", 2)
	// Generous WorkerTimeout: death detection here comes from the dispatch
	// path; tight probe deadlines flake on CPU-saturated test machines.
	c := newTestCoordinator(t, Options{DispatchParallel: 2, WorkerTimeout: 10 * time.Second}, w1, w2)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	// Kill w2 after its first served request: cells already routed to it
	// and every future one must fail over to w1.
	go func() {
		for w2.served.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		w2.kill()
	}()

	sweep := api.SweepRequest{
		Workloads: []string{"stream", "pointer_chase"},
		Schemes:   []string{"unsafe", "dom"},
		Scale:     "test",
	}
	resp, body := postSpec(t, ts.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sum api.SweepSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("bad summary: %v", err)
	}
	if len(sum.Cells) != 8 || sum.Errors != 0 {
		for _, cell := range sum.Cells {
			if cell.Error != "" {
				t.Logf("cell %s/%s/ap=%v: %s", cell.Workload, cell.Scheme, cell.AP, cell.Error)
			}
		}
		t.Fatalf("cells=%d errors=%d, want 8 complete cells", len(sum.Cells), sum.Errors)
	}
	for _, cell := range sum.Cells {
		if cell.Result.Cycles == 0 || cell.Result.Checksum == 0 {
			t.Errorf("cell %s/%s/ap=%v empty after failover", cell.Workload, cell.Scheme, cell.AP)
		}
	}

	st := c.Stats()
	if len(st.Workers) != 1 || st.Workers[0].ID != "w1" {
		t.Errorf("workers after death = %+v, want only w1", st.Workers)
	}
	if st.WorkerFails == 0 {
		t.Error("worker death not counted as a failure")
	}
}

func TestDuplicateWorkerRegistration(t *testing.T) {
	// A long heartbeat interval keeps the health loop from probing the
	// fake addresses mid-test.
	c := newTestCoordinator(t, Options{HeartbeatInterval: time.Hour})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	reg := func(id, addr string) api.RegisterResponse {
		resp, body := postSpec(t, ts.URL+"/v1/cluster/register", api.RegisterRequest{ID: id, Addr: addr})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d: %s", id, resp.StatusCode, body)
		}
		var rr api.RegisterResponse
		json.Unmarshal(body, &rr)
		return rr
	}
	_ = reg("w1", "http://127.0.0.1:1111")
	rr := reg("w1", "http://127.0.0.1:2222") // restarted worker, same identity
	if rr.Workers != 1 {
		t.Fatalf("duplicate registration inflated worker count to %d", rr.Workers)
	}
	ws := c.workerInfos()
	if len(ws) != 1 || ws[0].Addr != "http://127.0.0.1:2222" {
		t.Fatalf("registry = %+v, want one worker at the newest addr", ws)
	}
	if got := len(c.currentRing().members()); got != 1 {
		t.Fatalf("ring members = %d, want 1", got)
	}

	// Registration sanity: missing fields and non-URL addrs are rejected.
	for _, req := range []api.RegisterRequest{
		{ID: "", Addr: "http://x"},
		{ID: "w9", Addr: ""},
		{ID: "w9", Addr: "127.0.0.1:80"},
	} {
		resp, _ := postSpec(t, ts.URL+"/v1/cluster/register", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %+v: status %d, want 400", req, resp.StatusCode)
		}
	}
}

// TestStoreCorruptionRecomputed: a store whose record fails its checksum
// must not poison the cluster — the coordinator logs, recomputes on a
// worker, and overwrites the bad record.
func TestStoreCorruptionRecomputed(t *testing.T) {
	st, path := newTestStore(t)
	w1 := newTestWorker(t, "w1", 2)
	c := newTestCoordinator(t, Options{Store: st, CacheSize: -1}, w1)

	run, err := c.execute(context.Background(), testSpec)
	if err != nil || run.Source != api.SourceComputed {
		t.Fatalf("first execute: %v, %s", err, run.Source)
	}
	// Sanity: with the LRU disabled, the second execute hits the store.
	if again, err := c.execute(context.Background(), testSpec); err != nil || again.Source != api.SourceStore {
		t.Fatalf("second execute: %v, source %s, want store", err, again.Source)
	}

	corruptStoreValue(t, path)

	rerun, err := c.execute(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("execute over corrupt store: %v", err)
	}
	if rerun.Source != api.SourceComputed {
		t.Errorf("source = %s, want computed (corrupt record must not serve)", rerun.Source)
	}
	if rerun.Result.Checksum != run.Result.Checksum {
		t.Error("recomputed result diverges from the original")
	}
	// The rewrite must have healed the store.
	if healed, err := c.execute(context.Background(), testSpec); err != nil || healed.Source != api.SourceStore {
		t.Errorf("post-heal execute: %v, source %s, want store", err, healed.Source)
	}
}

func TestRateLimit429WithRetryAfter(t *testing.T) {
	w1 := newTestWorker(t, "w1", 1)
	c := newTestCoordinator(t, Options{RateLimit: 0.001, RateBurst: 2}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	client := func() (*http.Response, []byte) {
		raw, _ := json.Marshal(testSpec)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(raw))
		req.Header.Set("X-Doppel-Client", "hammer")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	for i := 0; i < 2; i++ {
		if resp, body := client(); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := client()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive number of seconds", ra)
	}
	// A different client is unaffected.
	raw, _ := json.Marshal(testSpec)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(raw))
	req.Header.Set("X-Doppel-Client", "polite")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("independent client got %d", resp2.StatusCode)
	}
}

// TestAdmissionControl429WhenSaturated: with the dispatch queue bound at 1
// and a worker that blocks, a second request is refused with Retry-After.
func TestAdmissionControl429WhenSaturated(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 8)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		blocked <- struct{}{}
		<-release
		api.WriteError(w, http.StatusInternalServerError, "released")
	}))
	t.Cleanup(slow.Close)

	c := newTestCoordinator(t, Options{MaxQueue: 1})
	c.register("slow", slow.URL)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postSpec(t, ts.URL+"/v1/run", testSpec)
	}()
	<-blocked // the first job is admitted and holds the only queue slot

	resp, body := postSpec(t, ts.URL+"/v1/run", api.RunRequest{Workload: "stream", Scale: "test"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("saturated 429 missing Retry-After")
	}
	close(release) // unblock the admitted job before waiting on it
	<-done
}

func TestStreamingSweepNDJSON(t *testing.T) {
	w1 := newTestWorker(t, "w1", 2)
	c := newTestCoordinator(t, Options{}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	sweep := api.SweepRequest{Workloads: []string{"stream"}, Schemes: []string{"unsafe", "dom"}, Scale: "test", Stream: "ndjson"}
	raw, _ := json.Marshal(sweep)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var progress []api.SweepProgress
	var done *api.SweepSummary
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line: %v: %s", err, sc.Text())
		}
		switch probe.Type {
		case "progress":
			var p api.SweepProgress
			json.Unmarshal(sc.Bytes(), &p)
			progress = append(progress, p)
		case "done":
			var s api.SweepSummary
			json.Unmarshal(sc.Bytes(), &s)
			done = &s
		}
	}
	if len(progress) != 4 {
		t.Fatalf("progress events = %d, want 4", len(progress))
	}
	for i, p := range progress {
		if p.Index != i || p.Total != 4 {
			t.Errorf("event %d out of order: index=%d total=%d", i, p.Index, p.Total)
		}
		if p.Checksum == 0 || p.Cycles == 0 {
			t.Errorf("event %d empty: %+v", i, p)
		}
	}
	if done == nil || len(done.Cells) != 4 || done.Errors != 0 {
		t.Fatalf("missing or incomplete done summary: %+v", done)
	}
	if done.Sources[api.SourceComputed] != 4 {
		t.Errorf("sources = %v, want 4 computed", done.Sources)
	}
}

func TestStreamingSweepSSE(t *testing.T) {
	w1 := newTestWorker(t, "w1", 2)
	c := newTestCoordinator(t, Options{}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	sweep := api.SweepRequest{Workloads: []string{"stream"}, Schemes: []string{"unsafe"}, AP: "off", Scale: "test"}
	raw, _ := json.Marshal(sweep)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(raw))
	req.Header.Set("Accept", "text/event-stream") // transport via Accept, not body
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	if !strings.Contains(out, "event: progress\ndata: ") {
		t.Errorf("no SSE progress frame in:\n%s", out)
	}
	if !strings.Contains(out, "event: done\ndata: ") {
		t.Errorf("no SSE done frame in:\n%s", out)
	}
}

// TestShutdownDrainsStream: an http.Server shutdown while a streaming
// sweep is in flight must let the stream run to its done event rather than
// severing it — the ISSUE's graceful-drain requirement.
func TestShutdownDrainsStream(t *testing.T) {
	w1 := newTestWorker(t, "w1", 2)
	c := newTestCoordinator(t, Options{}, w1)
	hs := httptest.NewServer(c.Handler())
	// Not using t.Cleanup(hs.Close): the test shuts the server down itself.

	sweep := api.SweepRequest{Workloads: []string{"stream", "pointer_chase"}, Schemes: []string{"unsafe", "dom"}, Scale: "test", Stream: "ndjson"}
	raw, _ := json.Marshal(sweep)
	resp, err := http.Post(hs.URL+"/v1/sweep", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the first progress line so the stream is demonstrably in flight,
	// then shut down while it continues.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream produced no first line")
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- hs.Config.Shutdown(ctx)
	}()

	sawDone := false
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		json.Unmarshal(sc.Bytes(), &probe)
		if probe.Type == "done" {
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream severed during shutdown: %v", err)
	}
	if !sawDone {
		t.Fatal("shutdown cut the sweep stream before its done event")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	c.Close()
	hs.Listener.Close()
}

// TestHealthLoopRemovesSilentWorker: a worker that stops heartbeating and
// fails its probe is removed by the health loop without any dispatch.
func TestHealthLoopRemovesSilentWorker(t *testing.T) {
	w1 := newTestWorker(t, "w1", 1)
	c := newTestCoordinator(t, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		WorkerTimeout:     60 * time.Millisecond,
	}, w1)
	w1.kill() // health probes now abort

	deadline := time.After(5 * time.Second)
	for {
		if len(c.workerInfos()) == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("health loop never removed the dead worker")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if c.Stats().WorkerFails == 0 {
		t.Error("health-loop removal not counted as a failure")
	}
}

// TestHealthProbeRevivesQuietWorker: a worker that misses heartbeats but
// still answers /healthz stays on the ring.
func TestHealthProbeRevivesQuietWorker(t *testing.T) {
	w1 := newTestWorker(t, "w1", 1)
	c := newTestCoordinator(t, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		WorkerTimeout:     40 * time.Millisecond,
	}, w1)
	time.Sleep(200 * time.Millisecond) // several timeouts elapse, probes pass
	if len(c.workerInfos()) != 1 {
		t.Fatal("responsive worker evicted despite passing health probes")
	}
}

func TestAgentRegistersHeartbeatsAndDeregisters(t *testing.T) {
	c := newTestCoordinator(t, Options{HeartbeatInterval: 20 * time.Millisecond})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	agent := &Agent{Coordinator: ts.URL, ID: "w-agent", Addr: "http://127.0.0.1:7777", Logf: t.Logf}
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()

	// Registration.
	deadline := time.After(5 * time.Second)
	for len(c.workerInfos()) == 0 {
		select {
		case <-deadline:
			t.Fatal("agent never registered")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Heartbeats keep it fresh across several intervals.
	time.Sleep(100 * time.Millisecond)
	ws := c.workerInfos()
	if len(ws) != 1 || ws[0].LastSeenMS > 80 {
		t.Fatalf("heartbeats not refreshing liveness: %+v", ws)
	}

	// Cancellation deregisters before Run returns.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("agent run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not exit on cancellation")
	}
	if n := len(c.workerInfos()); n != 0 {
		t.Fatalf("workers after deregister = %d, want 0", n)
	}
}

// TestAgentReregistersAfterCoordinatorAmnesia: heartbeats answered 404
// (coordinator restarted, lost its view) push the agent to re-register.
func TestAgentReregistersAfterCoordinatorAmnesia(t *testing.T) {
	c := newTestCoordinator(t, Options{HeartbeatInterval: 20 * time.Millisecond})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agent := &Agent{Coordinator: ts.URL, ID: "w-agent", Addr: "http://127.0.0.1:7777"}
	go agent.Run(ctx)

	deadline := time.After(5 * time.Second)
	for len(c.workerInfos()) == 0 {
		select {
		case <-deadline:
			t.Fatal("agent never registered")
		case <-time.After(5 * time.Millisecond):
		}
	}
	c.remove("w-agent", "simulated coordinator amnesia")
	for len(c.workerInfos()) == 0 {
		select {
		case <-deadline:
			t.Fatal("agent never re-registered after amnesia")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestClusterMetricsExposed(t *testing.T) {
	met := newTestMetrics()
	w1 := newTestWorker(t, "w1", 2)
	c := newTestCoordinator(t, Options{Metrics: met}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	if resp, body := postSpec(t, ts.URL+"/v1/run", testSpec); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	for _, family := range []string{
		"cluster_workers_live 1",
		`cluster_jobs_routed_total{worker="w1"} 1`,
		`cluster_result_source_total{source="computed"} 1`,
		"cluster_job_duration_ms",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics missing %q in:\n%s", family, firstLines(out, 60))
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func TestWorkerKeyMismatchIsConflict(t *testing.T) {
	w1 := newTestWorker(t, "w1", 1)
	raw, _ := json.Marshal(api.ExecuteRequest{Spec: testSpec, Key: strings.Repeat("0", 64)})
	resp, err := http.Post(w1.ts.URL+"/internal/v1/execute", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409 on key mismatch", resp.StatusCode)
	}
	var e api.Error
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e.Error, "mismatch") {
		t.Errorf("error = %q", e.Error)
	}
}

func TestHealthzAndWorkersEndpoints(t *testing.T) {
	w1 := newTestWorker(t, "w1", 1)
	c := newTestCoordinator(t, Options{}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Role    string `json:"role"`
		Workers int    `json:"workers"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz.Status != "ok" || hz.Role != "coordinator" || hz.Workers != 1 {
		t.Errorf("healthz = %+v", hz)
	}

	resp, err = http.Get(ts.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	var ws struct {
		Workers []api.WorkerInfo `json:"workers"`
	}
	json.NewDecoder(resp.Body).Decode(&ws)
	resp.Body.Close()
	if len(ws.Workers) != 1 || ws.Workers[0].ID != "w1" {
		t.Errorf("workers = %+v", ws.Workers)
	}
}

// TestBadSweepIs400 checks a sweep naming an unknown scale or workload is
// refused whole with 400, as doppeld refuses it, and no cell is dispatched.
func TestBadSweepIs400(t *testing.T) {
	w1 := newTestWorker(t, "w1", 1)
	c := newTestCoordinator(t, Options{}, w1)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	for _, body := range []string{`{"scale":"galactic"}`, `{"workloads":["nope"]}`} {
		resp, raw := postSpec(t, ts.URL+"/v1/sweep", json.RawMessage(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%.200s)", body, resp.StatusCode, raw)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: not a JSON error body: %.200s", body, raw)
		}
	}
	if n := w1.served.Load(); n != 0 {
		t.Errorf("refused sweeps reached the worker %d times, want 0", n)
	}
}
