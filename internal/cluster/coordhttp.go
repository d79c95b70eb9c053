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

	"doppelganger/sim"
)

// RunResult is the coordinator's answer to POST /v1/run.
type RunResult struct {
	// Key is the job's canonical engine cache key (the sharding key).
	Key string `json:"key"`
	// Source is which tier answered: memory, store, or computed.
	Source string `json:"source"`
	// Worker names the executing worker for computed results.
	Worker string     `json:"worker,omitempty"`
	Result sim.Result `json:"result"`
}

// SweepProgress is one per-cell streaming progress event.
type SweepProgress struct {
	Type string `json:"type"` // "progress"
	// Index is the cell's position in canonical matrix order; Total the
	// cell count. Events are emitted in index order.
	Index    int    `json:"index"`
	Total    int    `json:"total"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	AP       bool   `json:"ap"`
	Source   string `json:"source"`
	Worker   string `json:"worker,omitempty"`
	Cycles   uint64 `json:"cycles"`
	Checksum uint64 `json:"checksum"`
	// Error carries a per-cell failure; the sweep continues past it.
	Error string `json:"error,omitempty"`
}

// SweepCell is one completed cell in the final sweep summary.
type SweepCell struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	AP       bool   `json:"ap"`
	Source   string `json:"source"`
	Worker   string `json:"worker,omitempty"`
	// NormIPC is IPC normalized to the same workload's unsafe no-AP
	// baseline, when the sweep includes it.
	NormIPC float64    `json:"norm_ipc,omitempty"`
	Error   string     `json:"error,omitempty"`
	Result  sim.Result `json:"result"`
}

// SweepSummary is the final sweep payload (the whole response when not
// streaming; the terminal "done" event when streaming).
type SweepSummary struct {
	Type       string      `json:"type"` // "done"
	Cells      []SweepCell `json:"cells"`
	Errors     int         `json:"errors"`
	DurationMS int64       `json:"duration_ms"`
	// Sources tallies cells by serving tier.
	Sources map[string]int `json:"sources"`
}

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
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("rate limit exceeded; retry after %ds", seconds))
		return false
	}
	if c.opts.MaxQueue > 0 && c.active.Load() >= int64(c.opts.MaxQueue) {
		if c.met != nil {
			c.met.saturated.Inc()
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("dispatch queue saturated (%d active jobs); retry after 1s", c.active.Load()))
		return false
	}
	return true
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	var spec JobSpec
	if err := decodeJSON(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, source, workerID, err := c.execute(r.Context(), spec)
	if err != nil {
		c.writeExecuteError(w, err)
		return
	}
	job, _ := spec.Resolve()
	c.runs.Add(1)
	writeJSON(w, http.StatusOK, RunResult{
		Key:    string(job.Key()),
		Source: source,
		Worker: workerID,
		Result: res,
	})
}

// writeExecuteError maps an execute failure onto a status code.
func (c *Coordinator) writeExecuteError(w http.ResponseWriter, err error) {
	switch {
	case err == errNoWorkers:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case strings.Contains(err.Error(), "unknown ") ||
		strings.Contains(err.Error(), "missing "):
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// streamMode resolves the requested progress transport.
func streamMode(spec SweepSpec, r *http.Request) string {
	switch spec.Stream {
	case "sse", "ndjson":
		return spec.Stream
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
	var spec SweepSpec
	if err := decodeJSON(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cells, err := spec.Cells()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mode := streamMode(spec, r)

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
			if _, done := v.(SweepSummary); done {
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
	writeJSON(w, http.StatusOK, summary)
}

// runSweep executes every cell with bounded parallelism, emitting ordered
// per-cell progress (a reorder buffer guarantees index order regardless of
// completion interleaving), and assembles the summary. Per-cell failures
// are recorded, not fatal: one bad cell must not void 167 good ones.
func (c *Coordinator) runSweep(r *http.Request, cells []JobSpec, emit func(v any)) SweepSummary {
	start := time.Now()
	type outcome struct {
		res    sim.Result
		source string
		worker string
		err    error
	}
	outs := make([]outcome, len(cells))
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
			res, source, workerID, err := c.execute(r.Context(), cells[i])
			mu.Lock()
			defer mu.Unlock()
			outs[i] = outcome{res: res, source: source, worker: workerID, err: err}
			settled[i] = true
			for next < len(cells) && settled[next] {
				if emit != nil {
					o := outs[next]
					p := SweepProgress{
						Type:     "progress",
						Index:    next,
						Total:    len(cells),
						Workload: cells[next].Workload,
						Scheme:   cells[next].Scheme,
						AP:       cells[next].AP,
						Source:   o.source,
						Worker:   o.worker,
						Cycles:   o.res.Cycles,
						Checksum: o.res.Checksum,
					}
					if o.err != nil {
						p.Error = o.err.Error()
					}
					emit(p)
				}
				next++
			}
		}(i)
	}
	wg.Wait()

	summary := SweepSummary{
		Type:    "done",
		Cells:   make([]SweepCell, len(cells)),
		Sources: make(map[string]int),
	}
	base := make(map[string]uint64) // workload -> unsafe no-AP cycles
	for i, spec := range cells {
		o := outs[i]
		cell := SweepCell{
			Workload: spec.Workload,
			Scheme:   spec.Scheme,
			AP:       spec.AP,
			Source:   o.source,
			Worker:   o.worker,
			Result:   o.res,
		}
		if o.err != nil {
			cell.Error = o.err.Error()
			summary.Errors++
		} else {
			summary.Sources[o.source]++
			if spec.Scheme == sim.Unsafe.String() && !spec.AP {
				base[spec.Workload] = o.res.Cycles
			}
		}
		summary.Cells[i] = cell
	}
	for i := range summary.Cells {
		cell := &summary.Cells[i]
		if b, ok := base[cell.Workload]; ok && cell.Error == "" && cell.Result.Cycles > 0 {
			cell.NormIPC = float64(b) / float64(cell.Result.Cycles)
		}
	}
	summary.DurationMS = time.Since(start).Milliseconds()
	return summary
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeError(w, http.StatusBadRequest, "register needs both \"id\" and \"addr\"")
		return
	}
	if !strings.HasPrefix(req.Addr, "http://") && !strings.HasPrefix(req.Addr, "https://") {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("addr %q must be a base URL (http://host:port)", req.Addr))
		return
	}
	n := c.register(req.ID, strings.TrimRight(req.Addr, "/"))
	writeJSON(w, http.StatusOK, RegisterResponse{
		Workers:     n,
		HeartbeatMS: c.opts.HeartbeatInterval.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !c.heartbeat(req.ID) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown worker %q (re-register)", req.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	c.remove(req.ID, "deregistered")
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.workerInfos()})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"role":      "coordinator",
		"workers":   len(c.workerInfos()),
		"uptime_ms": time.Since(c.start).Milliseconds(),
	})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"cluster": c.Stats()})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if c.met != nil {
		c.met.reg.WritePrometheus(w)
	}
}
