package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"doppelganger/api"
	"doppelganger/internal/engine"
	"doppelganger/sim"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, nil).handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestRunRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var run api.RunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if run.ID == "" || run.Workload != "stream" || run.Scheme != "dom" || !run.AP {
		t.Errorf("unexpected response fields: %+v", run)
	}
	if run.Result.Cycles == 0 || run.Result.Insts == 0 {
		t.Errorf("empty result: %+v", run.Result)
	}

	// The stored result must round-trip byte-identically.
	resp2, stored := getJSON(t, ts.URL+"/v1/results/"+run.ID)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp2.StatusCode, stored)
	}
	if !bytes.Equal(body, stored) {
		t.Error("GET /v1/results body differs from the POST /v1/run body")
	}
}

func TestSweepRoundTripAndCacheHits(t *testing.T) {
	ts := newTestServer(t)
	req := `{"workloads":["matrix_blocked"],"schemes":["unsafe","dom"],"scale":"test"}`
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sweep api.SweepResponse
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(sweep.Cells) != 4 { // 1 workload x 2 schemes x 2 AP
		t.Fatalf("cells = %d, want 4", len(sweep.Cells))
	}
	if c := sweep.Cells[0]; c.Workload != "matrix_blocked" || c.Scheme != "unsafe" || c.AP {
		t.Errorf("first cell out of matrix order: %+v", c)
	}
	for _, c := range sweep.Cells {
		if c.Result.Cycles == 0 {
			t.Errorf("cell %s/%s/ap=%v is empty", c.Workload, c.Scheme, c.AP)
		}
		if c.NormIPC <= 0 {
			t.Errorf("cell %s/%s/ap=%v missing norm_ipc", c.Workload, c.Scheme, c.AP)
		}
	}
	if base := sweep.Cells[0].NormIPC; base != 1.0 {
		t.Errorf("baseline norm_ipc = %v, want 1", base)
	}

	// An identical sweep must be served from the engine's result cache.
	if resp, body := postJSON(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat sweep status %d: %s", resp.StatusCode, body)
	}
	_, statsBody := getJSON(t, ts.URL+"/stats")
	var stats struct {
		Engine engine.Stats `json:"engine"`
		Server struct {
			Runs   uint64 `json:"runs"`
			Sweeps uint64 `json:"sweeps"`
		} `json:"server"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, statsBody)
	}
	if stats.Engine.CacheHits == 0 {
		t.Errorf("repeated sweep reported no cache hits: %+v", stats.Engine)
	}
	if stats.Engine.JobsRun != 4 {
		t.Errorf("jobs run = %d, want 4 (second sweep fully cached)", stats.Engine.JobsRun)
	}
	if stats.Server.Sweeps != 2 {
		t.Errorf("sweeps = %d, want 2", stats.Server.Sweeps)
	}
}

func TestUnknownWorkloadIs400(t *testing.T) {
	ts := newTestServer(t)
	for _, ep := range []string{"/v1/run", "/v1/sweep"} {
		body := fmt.Sprintf(`{"workload%s":["nope"],"scale":"test"}`, "s")
		if ep == "/v1/run" {
			body = `{"workload":"nope","scale":"test"}`
		}
		resp, raw := postJSON(t, ts.URL+ep, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", ep, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s content type = %q", ep, ct)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "nope") {
			t.Errorf("%s error body = %s", ep, raw)
		}
	}
}

func TestBadRequestsAre400(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct{ ep, body string }{
		{"/v1/run", `{"workload":"stream","scheme":"bogus","scale":"test"}`},
		{"/v1/run", `{"workload":"stream","scale":"huge"}`},
		{"/v1/run", `{"typo_field":1}`},
		{"/v1/run", `{`},
		{"/v1/sweep", `{"ap":"maybe","scale":"test"}`},
	}
	for _, c := range cases {
		resp, raw := postJSON(t, ts.URL+c.ep, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status = %d, want 400 (%s)", c.ep, c.body, resp.StatusCode, raw)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: not a JSON error body: %s", c.ep, c.body, raw)
		}
	}
}

func TestResultsUnknownIDIs404(t *testing.T) {
	ts := newTestServer(t)
	resp, raw := getJSON(t, ts.URL+"/v1/results/run-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Errorf("not a JSON error body: %s", raw)
	}
}

// TestMetricsEndpoint mirrors main.go's wiring — one registry shared by the
// engine and the server — and checks an executed run surfaces simulator and
// engine metric families on /metrics.
func TestMetricsEndpoint(t *testing.T) {
	met := sim.NewMetrics()
	eng := engine.New(engine.Options{Workers: 2, Metrics: met})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, met).handler())
	t.Cleanup(ts.Close)

	if resp, body := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}

	resp, raw := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	out := string(raw)
	for _, family := range []string{
		"sim_cycles_total",
		"sim_cache_hits_total",
		"sim_shadow_lifetime_cycles",
		"engine_jobs_total",
		"engine_cache_misses_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}

// TestTracedRun checks trace:true returns per-run events and preserves the
// result, and that the event budget is clamped and reported.
func TestTracedRun(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test","trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var run api.RunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(run.Events) == 0 {
		t.Fatal("traced run returned no events")
	}
	if run.Result.Cycles == 0 || run.Result.Checksum == 0 {
		t.Errorf("traced run lost its result: %+v", run.Result)
	}
	for i, e := range run.Events {
		if e.Kind.String() == "" {
			t.Fatalf("event %d has no kind: %+v", i, e)
		}
	}

	// A tight budget keeps only the newest events and reports the drop.
	resp, body = postJSON(t, ts.URL+"/v1/run",
		`{"workload":"stream","scheme":"dom","ap":true,"scale":"test","trace":true,"trace_events":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var small api.RunResponse
	if err := json.Unmarshal(body, &small); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(small.Events) > 16 {
		t.Errorf("events = %d, want <= 16", len(small.Events))
	}
	if small.EventsDropped == 0 {
		t.Error("tight budget reported no dropped events")
	}
	if small.Result.Checksum != run.Result.Checksum {
		t.Error("trace budget changed the architectural result")
	}
}

func TestHealthzShape(t *testing.T) {
	ts := newTestServer(t)
	resp, raw := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		UptimeMS *int64 `json:"uptime_ms"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("bad healthz JSON: %v", err)
	}
	if h.Status != "ok" || h.UptimeMS == nil {
		t.Errorf("healthz = %s", raw)
	}
}

func TestStatsShape(t *testing.T) {
	ts := newTestServer(t)
	_, raw := getJSON(t, ts.URL+"/stats")
	var st struct {
		Engine *engine.Stats  `json:"engine"`
		Server map[string]any `json:"server"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, raw)
	}
	if st.Engine == nil || st.Engine.Workers != 4 {
		t.Errorf("engine stats missing or wrong workers: %s", raw)
	}
	for _, key := range []string{"uptime_ms", "runs", "sweeps", "results_stored"} {
		if _, ok := st.Server[key]; !ok {
			t.Errorf("server stats missing %q: %s", key, raw)
		}
	}
}

// TestBadSweepIs400 checks a sweep naming an unknown scale or workload, or
// asking to stream, is refused whole, before any cell reaches the engine.
func TestBadSweepIs400(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, nil).handler())
	t.Cleanup(ts.Close)
	for _, body := range []string{`{"scale":"galactic"}`, `{"workloads":["nope"]}`,
		`{"workloads":["stream"],"scale":"test","stream":"sse"}`} {
		resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%.200s)", body, resp.StatusCode, raw)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: not a JSON error body: %.200s", body, raw)
		}
	}
	if n := eng.Stats().Submitted; n != 0 {
		t.Errorf("refused sweeps submitted %d jobs, want 0", n)
	}
}

// TestStoresEvictOldest fills the result and checkpoint stores one entry
// past their caps: the oldest entry of each is then 404, the newest is
// served, and /stats counts exactly the cap.
func TestStoresEvictOldest(t *testing.T) {
	ts := newTestServer(t)
	var ids []string
	for i := 0; i <= maxStoredResults; i++ { // identical runs: one simulation, the rest cache hits
		resp, body := postJSON(t, ts.URL+"/v1/run", `{"workload":"stream","scale":"test"}`)
		var run api.RunResponse
		if err := json.Unmarshal(body, &run); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
		ids = append(ids, run.ID)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/results/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest result %s: status %d, want 404", ids[0], resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/results/"+ids[len(ids)-1]); resp.StatusCode != http.StatusOK {
		t.Errorf("newest result: status %d, want 200", resp.StatusCode)
	}

	first := createCheckpoint(t, ts.URL, `{"workload":"stream","scale":"test","warmup_insts":1000}`)
	_, enc := getJSON(t, ts.URL+"/v1/checkpoint/"+first.ID)
	var last api.CheckpointResponse
	for i := 0; i < maxStoredCheckpoints; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/checkpoint/import", string(enc))
		if err := json.Unmarshal(body, &last); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("import %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/checkpoint/"+first.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest checkpoint %s: status %d, want 404", first.ID, resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/checkpoint/"+last.ID); resp.StatusCode != http.StatusOK {
		t.Errorf("newest checkpoint: status %d, want 200", resp.StatusCode)
	}

	_, raw := getJSON(t, ts.URL+"/stats")
	var st struct {
		Server struct {
			Results     int `json:"results_stored"`
			Checkpoints int `json:"checkpoints_stored"`
		} `json:"server"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, raw)
	}
	if st.Server.Results != maxStoredResults || st.Server.Checkpoints != maxStoredCheckpoints {
		t.Errorf("stats stored %d results, %d checkpoints; want %d, %d",
			st.Server.Results, st.Server.Checkpoints, maxStoredResults, maxStoredCheckpoints)
	}
}

// TestFIFOConcurrent stores and reads from several goroutines at once (run
// under -race); the store ends holding exactly its cap.
func TestFIFOConcurrent(t *testing.T) {
	f := newFIFO[int](4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("%d-%d", g, i)
				f.put(id, i)
				f.get(id)
				f.len()
			}
		}(g)
	}
	wg.Wait()
	if n := f.len(); n != 4 {
		t.Errorf("len = %d after 400 puts, want the cap 4", n)
	}
}
