package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"doppelganger/api"
)

// Handler builds the coordinator's route table: the public doppeld-shaped
// API plus the cluster control plane.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", c.handleRun)
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// clientID identifies the caller for rate limiting: the X-Doppel-Client
// header when present (lets load balancers and doppelbench tag logical
// clients), else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Doppel-Client"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit applies rate limiting and admission control; a false return means
// a 429 has been written.
func (c *Coordinator) admit(w http.ResponseWriter, r *http.Request) bool {
	if ok, retry := c.limiter.take(clientID(r)); !ok {
		if c.met != nil {
			c.met.rateLimited.Inc()
		}
		seconds := int(retry / time.Second)
		if retry%time.Second != 0 {
			seconds++
		}
		w.Header().Set("Retry-After", strconv.Itoa(seconds))
		api.WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("rate limit exceeded; retry after %ds", seconds))
		return false
	}
	if c.opts.MaxQueue > 0 && c.active.Load() >= int64(c.opts.MaxQueue) {
		if c.met != nil {
			c.met.saturated.Inc()
		}
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("dispatch queue saturated (%d active jobs); retry after 1s", c.active.Load()))
		return false
	}
	return true
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	var req api.RunRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.Fail(w, err)
		return
	}
	run, err := c.execute(r.Context(), req)
	if err == errNoWorkers {
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if err != nil {
		api.Fail(w, err)
		return
	}
	c.runs.Add(1)
	api.WriteJSON(w, http.StatusOK, run)
}

// streamMode resolves the requested progress transport.
func streamMode(req api.SweepRequest, r *http.Request) string {
	switch req.Stream {
	case "sse", "ndjson":
		return req.Stream
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "text/event-stream"):
		return "sse"
	case strings.Contains(accept, "application/x-ndjson"):
		return "ndjson"
	}
	return ""
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	var req api.SweepRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.Fail(w, err)
		return
	}
	cells, err := req.Expand()
	if err != nil {
		api.Fail(w, err)
		return
	}
	mode := streamMode(req, r)

	c.streams.Add(1)
	defer c.streams.Done()

	var emit func(v any) // nil when not streaming
	switch mode {
	case "sse":
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		emit = func(v any) {
			raw, _ := json.Marshal(v)
			event := "progress"
			if _, done := v.(api.SweepSummary); done {
				event = "done"
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
			if flusher != nil {
				flusher.Flush()
			}
		}
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		emit = func(v any) {
			enc.Encode(v)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	summary := c.runSweep(r, cells, emit)
	c.sweeps.Add(1)
	if c.met != nil {
		c.met.sweepLatency.Observe(uint64(summary.DurationMS))
	}
	if emit != nil {
		emit(summary)
		return
	}
	api.WriteJSON(w, http.StatusOK, summary)
}

// runSweep executes every cell with bounded parallelism, emitting ordered
// per-cell progress (a reorder buffer guarantees index order regardless of
// completion interleaving), and assembles the summary. Per-cell failures
// are recorded, not fatal: one bad cell must not void 167 good ones.
func (c *Coordinator) runSweep(r *http.Request, cells []api.SweepJob, emit func(v any)) api.SweepSummary {
	start := time.Now()
	outs := make([]api.SummaryCell, len(cells))
	settled := make([]bool, len(cells))
	next := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.opts.DispatchParallel)
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec := cells[i].Run
			run, err := c.execute(r.Context(), spec)
			mu.Lock()
			defer mu.Unlock()
			outs[i] = api.SummaryCell{Workload: spec.Workload, Scheme: spec.Scheme, AP: spec.AP,
				Source: run.Source, Worker: run.Worker, Result: run.Result}
			if err != nil {
				outs[i].Error = err.Error()
			}
			settled[i] = true
			for next < len(cells) && settled[next] {
				if emit != nil {
					o := outs[next]
					emit(api.SweepProgress{
						Type:     "progress",
						Index:    next,
						Total:    len(cells),
						Workload: o.Workload,
						Scheme:   o.Scheme,
						AP:       o.AP,
						Source:   o.Source,
						Worker:   o.Worker,
						Cycles:   o.Result.Cycles,
						Checksum: o.Result.Checksum,
						Error:    o.Error,
					})
				}
				next++
			}
		}(i)
	}
	wg.Wait()

	summary := api.SweepSummary{Type: "done", Cells: outs, Sources: make(map[string]int)}
	for _, o := range outs {
		if o.Error != "" {
			summary.Errors++
		} else {
			summary.Sources[o.Source]++
		}
	}
	api.SetNormIPC(summary.Cells)
	summary.DurationMS = time.Since(start).Milliseconds()
	return summary
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.ID == "" || req.Addr == "" {
		api.WriteError(w, http.StatusBadRequest, "register needs both \"id\" and \"addr\"")
		return
	}
	if !strings.HasPrefix(req.Addr, "http://") && !strings.HasPrefix(req.Addr, "https://") {
		api.WriteError(w, http.StatusBadRequest, fmt.Sprintf("addr %q must be a base URL (http://host:port)", req.Addr))
		return
	}
	n := c.register(req.ID, strings.TrimRight(req.Addr, "/"))
	api.WriteJSON(w, http.StatusOK, api.RegisterResponse{
		Workers:     n,
		HeartbeatMS: c.opts.HeartbeatInterval.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.HeartbeatRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !c.heartbeat(req.ID) {
		api.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown worker %q (re-register)", req.ID))
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req api.DeregisterRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	c.remove(req.ID, "deregistered")
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.workerInfos()})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"role":      "coordinator",
		"workers":   len(c.workerInfos()),
		"uptime_ms": time.Since(c.start).Milliseconds(),
	})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"cluster": c.Stats()})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if c.met != nil {
		c.met.reg.WritePrometheus(w)
	}
}
