package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doppelganger/api"
	"doppelganger/internal/engine"
	"doppelganger/internal/secure"
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

	mu      sync.Mutex
	results map[string]any
	order   []string // insertion order, for FIFO eviction

	ckptMu    sync.Mutex
	ckpts     map[string]*sim.Checkpoint
	ckptOrder []string // insertion order, for FIFO eviction

	progMu   sync.Mutex
	programs map[progKey]*sim.Program
}

type progKey struct {
	name  string
	scale workload.Scale
}

// newServer wraps an engine and an optional metrics registry (nil disables
// the /metrics endpoint's simulator families; the endpoint itself always
// serves).
func newServer(eng *engine.Engine, met *sim.Metrics) *server {
	if met == nil {
		met = sim.NewMetrics()
	}
	return &server{
		eng:      eng,
		met:      met,
		start:    time.Now(),
		results:  make(map[string]any),
		ckpts:    make(map[string]*sim.Checkpoint),
		programs: make(map[progKey]*sim.Program),
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

// program returns the built program for a workload at a scale, memoized:
// program images are immutable and deterministic, so every request for the
// same (workload, scale) shares one image.
func (s *server) program(name string, scale workload.Scale) (*sim.Program, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q; known: %s",
			name, strings.Join(workload.Names(), ", "))
	}
	k := progKey{name, scale}
	s.progMu.Lock()
	defer s.progMu.Unlock()
	if p, ok := s.programs[k]; ok {
		return p, nil
	}
	p := w.Build(scale)
	s.programs[k] = p
	return p, nil
}

func parseScale(name string) (workload.Scale, string, error) {
	switch name {
	case "", "full":
		return workload.ScaleFull, "full", nil
	case "test":
		return workload.ScaleTest, "test", nil
	default:
		return 0, "", fmt.Errorf("unknown scale %q (want \"test\" or \"full\")", name)
	}
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Workload == "" && req.Checkpoint == "" {
		writeError(w, http.StatusBadRequest, "missing \"workload\"")
		return
	}
	scale, scaleName, err := parseScale(req.Scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	scheme, err := sim.ParseScheme(cmp.Or(req.Scheme, sim.Unsafe.String()))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var ck *sim.Checkpoint
	if req.Checkpoint != "" {
		if ck = s.checkpoint(req.Checkpoint); ck == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no stored checkpoint %q", req.Checkpoint))
			return
		}
	}
	var prog *sim.Program
	if req.Workload != "" {
		prog, err = s.program(req.Workload, scale)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if ck != nil {
			if err := ck.CompatibleWith(prog); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
	} else {
		// Checkpoint-only request: run the program embedded in the
		// checkpoint (its captured state supersedes any initial image).
		prog = ck.Program()
		scaleName = ""
	}
	cfg := sim.Config{
		Scheme:            scheme,
		AddressPrediction: req.AP,
		MaxInsts:          req.MaxInsts,
		MaxCycles:         req.MaxCycles,
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
		writeSimError(w, err)
		return
	}
	s.runs.Add(1)
	workloadName := req.Workload
	if workloadName == "" {
		workloadName = prog.Name
	}
	resp := api.RunResponse{
		Schema:   api.SchemaVersion,
		ID:       s.newID("run"),
		Workload: workloadName,
		Scale:    scaleName,
		Scheme:   scheme.String(),
		AP:       req.AP,
		Result:   res,
	}
	if ring != nil {
		resp.Events = ring.Events()
		resp.EventsDropped = ring.Dropped()
	}
	s.store(resp.ID, resp)
	writeJSON(w, http.StatusOK, resp)
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
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	scale, scaleName, err := parseScale(req.Scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	names := req.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	schemes, aps, err := secure.ParseMatrix(req.Schemes, req.AP)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	var jobs []engine.Job
	var cells []api.SweepCell
	for _, name := range names {
		prog, err := s.program(name, scale)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		for _, scheme := range schemes {
			for _, ap := range aps {
				cells = append(cells, api.SweepCell{Workload: name, Scheme: scheme.String(), AP: ap})
				jobs = append(jobs, engine.Job{
					Program: prog,
					Config: sim.Config{
						Scheme:            scheme,
						AddressPrediction: ap,
						MaxInsts:          req.MaxInsts,
						MaxCycles:         req.MaxCycles,
					},
				})
			}
		}
	}
	results, err := s.eng.RunBatch(r.Context(), jobs, nil)
	if err != nil {
		writeSimError(w, err)
		return
	}
	base := make(map[string]uint64) // workload -> unsafe no-AP cycles
	for i := range cells {
		cells[i].Result = results[i]
		if jobs[i].Config.Scheme == sim.Unsafe && !cells[i].AP {
			base[cells[i].Workload] = results[i].Cycles
		}
	}
	for i := range cells {
		if b, ok := base[cells[i].Workload]; ok && cells[i].Result.Cycles > 0 {
			cells[i].NormIPC = float64(b) / float64(cells[i].Result.Cycles)
		}
	}
	s.sweeps.Add(1)
	resp := api.SweepResponse{Schema: api.SchemaVersion, ID: s.newID("sweep"), Scale: scaleName, Cells: cells}
	s.store(resp.ID, resp)
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	resp, ok := s.results[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no stored result %q", id))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	stored := len(s.results)
	s.mu.Unlock()
	s.ckptMu.Lock()
	ckpts := len(s.ckpts)
	s.ckptMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"engine": s.eng.Stats(),
		"server": map[string]any{
			"uptime_ms":          time.Since(s.start).Milliseconds(),
			"runs":               s.runs.Load(),
			"sweeps":             s.sweeps.Load(),
			"results_stored":     stored,
			"checkpoints_stored": ckpts,
		},
	})
}

// newID mints a store identifier like "run-7".
func (s *server) newID(kind string) string {
	return fmt.Sprintf("%s-%d", kind, s.nextID.Add(1))
}

// store retains a response for GET /v1/results/{id}, evicting the oldest
// beyond the cap.
func (s *server) store(id string, resp any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[id] = resp
	s.order = append(s.order, id)
	for len(s.order) > maxStoredResults {
		delete(s.results, s.order[0])
		s.order = s.order[1:]
	}
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, api.Error{Error: msg})
}

// writeSimError maps an engine failure to a status: client cancellations
// surface as 499-style 400s, everything else is a 500.
func writeSimError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		code = http.StatusBadRequest
	}
	writeError(w, code, err.Error())
}
