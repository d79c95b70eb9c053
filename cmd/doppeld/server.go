package main

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"doppelganger/api"
	"doppelganger/internal/engine"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// maxStoredResults bounds the in-memory result store (FIFO eviction).
const maxStoredResults = 256

// defaultTraceEvents and maxTraceEvents bound the per-run trace ring for
// traced /v1/run requests: the response keeps the most recent events and
// reports how many older ones were dropped.
const (
	defaultTraceEvents = 4096
	maxTraceEvents     = 65536
)

// server is the doppeld HTTP API over one shared engine. All simulation
// work funnels through the engine, so concurrent requests share its worker
// pool, result cache and in-flight deduplication.
type server struct {
	eng   *engine.Engine
	met   *sim.Metrics
	start time.Time

	nextID atomic.Uint64
	runs   atomic.Uint64
	sweeps atomic.Uint64

	results *fifo[any]
	ckpts   *fifo[*sim.Checkpoint]
}

// newServer wraps an engine and an optional metrics registry (nil disables
// the /metrics endpoint's simulator families; the endpoint itself always
// serves).
func newServer(eng *engine.Engine, met *sim.Metrics) *server {
	if met == nil {
		met = sim.NewMetrics()
	}
	return &server{
		eng:     eng,
		met:     met,
		start:   time.Now(),
		results: newFIFO[any](maxStoredResults),
		ckpts:   newFIFO[*sim.Checkpoint](maxStoredCheckpoints),
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("POST /v1/leakcheck", s.handleLeakcheck)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpointCreate)
	mux.HandleFunc("POST /v1/checkpoint/import", s.handleCheckpointImport)
	mux.HandleFunc("GET /v1/checkpoint/{id}", s.handleCheckpointExport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.Fail(w, err)
		return
	}
	prog, cfg, err := req.Resolve()
	if err != nil {
		api.Fail(w, err)
		return
	}
	scaleName := cmp.Or(req.Scale, workload.ScaleFull.String())
	var ck *sim.Checkpoint
	if req.Checkpoint != "" {
		var ok bool
		if ck, ok = s.ckpts.get(req.Checkpoint); !ok {
			api.WriteError(w, http.StatusNotFound, fmt.Sprintf("no stored checkpoint %q", req.Checkpoint))
			return
		}
		if prog == nil {
			// Checkpoint-only request: run the program embedded in the
			// checkpoint (its captured state supersedes any initial image).
			prog, scaleName = ck.Program(), ""
		} else if err := ck.CompatibleWith(prog); err != nil {
			api.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	var (
		res  sim.Result
		ring *sim.RingSink
	)
	if req.Trace {
		// A traced run carries per-run state the shared result cache cannot
		// hold, so it bypasses the engine and runs in the request goroutine
		// (metrics still flow into the shared registry).
		limit := req.TraceEvents
		if limit <= 0 {
			limit = defaultTraceEvents
		}
		if limit > maxTraceEvents {
			limit = maxTraceEvents
		}
		ring = sim.NewRingSink(limit)
		// Surface ring evictions on /metrics: a truncated trace response
		// (EventsDropped > 0) is easy to miss client-side, the counter is not.
		ring.AttachMetrics(s.met)
		ctx := r.Context()
		if req.TimeoutMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		if ck != nil {
			res, err = sim.RunFromCheckpoint(ctx, prog, cfg, ck,
				sim.WithTracer(ring), sim.WithMetrics(s.met))
		} else {
			res, err = sim.RunContext(ctx, prog, cfg,
				sim.WithTracer(ring), sim.WithMetrics(s.met))
		}
	} else {
		res, err = s.eng.Submit(r.Context(), engine.Job{
			Program:    prog,
			Config:     cfg,
			Checkpoint: ck,
			Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		})
	}
	if err != nil {
		api.Fail(w, err)
		return
	}
	s.runs.Add(1)
	resp := api.RunResponse{
		Schema:   api.SchemaVersion,
		ID:       s.newID("run"),
		Workload: cmp.Or(req.Workload, prog.Name),
		Scale:    scaleName,
		Scheme:   cfg.Scheme.String(),
		AP:       req.AP,
		Result:   res,
	}
	if ring != nil {
		resp.Events = ring.Events()
		resp.EventsDropped = ring.Dropped()
	}
	s.results.put(resp.ID, resp)
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the shared registry in Prometheus text exposition
// format: engine activity plus the simulator families (pipeline histograms,
// cache hit/miss counters, end-of-run totals) of every run executed so far.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WritePrometheus(w)
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.Fail(w, err)
		return
	}
	if req.Stream != "" {
		api.WriteError(w, http.StatusBadRequest, `doppeld does not stream sweeps: "stream" is served by the cluster coordinator`)
		return
	}
	sweep, err := req.Expand()
	if err != nil {
		api.Fail(w, err)
		return
	}
	jobs := make([]engine.Job, len(sweep))
	cells := make([]api.SweepCell, len(sweep))
	for i, c := range sweep {
		jobs[i] = engine.Job{Program: c.Program, Config: c.Config}
		cells[i] = api.SweepCell{Workload: c.Run.Workload, Scheme: c.Run.Scheme, AP: c.Run.AP}
	}
	results, err := s.eng.RunBatch(r.Context(), jobs, nil)
	if err != nil {
		api.Fail(w, err)
		return
	}
	for i := range cells {
		cells[i].Result = results[i]
	}
	api.SetNormIPC(cells)
	s.sweeps.Add(1)
	resp := api.SweepResponse{Schema: api.SchemaVersion, ID: s.newID("sweep"),
		Scale: cmp.Or(req.Scale, workload.ScaleFull.String()), Cells: cells}
	s.results.put(resp.ID, resp)
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, ok := s.results.get(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Sprintf("no stored result %q", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"engine": s.eng.Stats(),
		"server": map[string]any{
			"uptime_ms":          time.Since(s.start).Milliseconds(),
			"runs":               s.runs.Load(),
			"sweeps":             s.sweeps.Load(),
			"results_stored":     s.results.len(),
			"checkpoints_stored": s.ckpts.len(),
		},
	})
}

// newID mints a store identifier like "run-7".
func (s *server) newID(kind string) string {
	return fmt.Sprintf("%s-%d", kind, s.nextID.Add(1))
}

// fifo is a mutex-guarded map that evicts its oldest entries beyond a
// cap: doppeld's in-memory stores of results and checkpoints.
type fifo[V any] struct {
	mu    sync.Mutex
	max   int
	items map[string]V
	order []string // insertion order, for eviction
}

func newFIFO[V any](max int) *fifo[V] {
	return &fifo[V]{max: max, items: make(map[string]V)}
}

// put stores v under id, evicting the oldest entries beyond the cap.
func (f *fifo[V]) put(id string, v V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.items[id] = v
	f.order = append(f.order, id)
	for len(f.order) > f.max {
		delete(f.items, f.order[0])
		f.order = f.order[1:]
	}
}

// get looks up id; ok is false when it was never stored or was evicted.
func (f *fifo[V]) get(id string) (v V, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok = f.items[id]
	return v, ok
}

func (f *fifo[V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.items)
}
