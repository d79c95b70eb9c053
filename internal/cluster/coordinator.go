package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doppelganger/api"
	"doppelganger/internal/cluster/store"
	"doppelganger/internal/engine"
	"doppelganger/internal/obs"
	"doppelganger/sim"
)

// maxAttempts bounds how many distinct workers one job is tried on before
// it fails.
const maxAttempts = 3

// Options configures a Coordinator.
type Options struct {
	// Store, when non-nil, is the persistent result tier. Every computed
	// result is written through; every miss of the memory LRU consults it
	// before dispatching.
	Store *store.Store
	// Metrics, when non-nil, receives cluster activity.
	Metrics *obs.Metrics
	// CacheSize bounds the memory LRU in entries (0 = 4096, negative
	// disables).
	CacheSize int
	// HeartbeatInterval is how often workers are told to heartbeat
	// (0 = 1s).
	HeartbeatInterval time.Duration
	// WorkerTimeout is how stale a worker's liveness may grow before the
	// health loop probes it and, on failure, removes it
	// (0 = 3× HeartbeatInterval).
	WorkerTimeout time.Duration
	// DispatchParallel bounds concurrent dispatches per sweep (0 = 16).
	DispatchParallel int
	// MaxQueue bounds jobs admitted but not yet completed across all
	// requests; beyond it new work is refused 429 (0 = 1024, negative
	// disables admission control).
	MaxQueue int
	// RateLimit is the per-client request rate in requests/second
	// (0 = unlimited); RateBurst is the bucket depth (0 = 10).
	RateLimit float64
	RateBurst int
	// Client overrides the dispatch HTTP client (nil = no-timeout default;
	// per-dispatch deadlines come from the request context).
	Client *http.Client
	// Logf, when non-nil, receives cluster lifecycle messages.
	Logf func(format string, args ...any)
}

// workerState is one registered worker.
type workerState struct {
	id       string
	addr     string
	lastSeen atomic.Int64 // unix nanos
	jobs     atomic.Uint64
	inflight atomic.Int64 // dispatches currently on the wire
}

// Coordinator owns the cluster view: the worker registry, the consistent-
// hash ring, the two-level result tier, admission control and rate
// limiting. It is safe for concurrent use.
type Coordinator struct {
	opts    Options
	met     *clusterMetrics
	lru     *engine.LRU[string, sim.Result]
	store   *store.Store
	limiter *limiter
	client  *http.Client

	mu      sync.Mutex
	workers map[string]*workerState
	ring    *ring

	active  atomic.Int64 // admitted, not-yet-settled compute jobs
	sweeps  atomic.Uint64
	runs    atomic.Uint64
	retries atomic.Uint64
	fails   atomic.Uint64
	start   time.Time

	streams  sync.WaitGroup // in-flight streaming responses, for drain
	stopOnce sync.Once
	stopped  chan struct{}
}

// NewCoordinator builds a coordinator and starts its health-check loop.
// Call Close to stop it.
func NewCoordinator(opts Options) *Coordinator {
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	if opts.WorkerTimeout <= 0 {
		opts.WorkerTimeout = 3 * opts.HeartbeatInterval
	}
	if opts.DispatchParallel <= 0 {
		opts.DispatchParallel = 16
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 1024
	}
	if opts.RateBurst <= 0 {
		opts.RateBurst = 10
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 4096
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		opts:    opts,
		met:     newClusterMetrics(opts.Metrics),
		lru:     engine.NewLRU[string, sim.Result](cacheSize),
		store:   opts.Store,
		limiter: newLimiter(opts.RateLimit, opts.RateBurst),
		client:  client,
		workers: make(map[string]*workerState),
		ring:    newRing(nil),
		start:   time.Now(),
		stopped: make(chan struct{}),
	}
	go c.healthLoop()
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Close stops the health loop and waits for in-flight streaming responses
// to drain. It does not close the store (the caller owns it).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stopped) })
	c.streams.Wait()
}

// register adds (or refreshes) a worker. A duplicate ID replaces the old
// address — one ring entry per identity, never two.
func (c *Coordinator) register(id, addr string) int {
	c.mu.Lock()
	w, existed := c.workers[id]
	if existed {
		if w.addr != addr {
			c.logf("cluster: worker %s re-registered at %s (was %s)", id, addr, w.addr)
		}
		w.addr = addr
	} else {
		w = &workerState{id: id, addr: addr}
		c.workers[id] = w
		c.rebuildRingLocked()
	}
	w.lastSeen.Store(time.Now().UnixNano())
	n := len(c.workers)
	c.mu.Unlock()
	if c.met != nil {
		c.met.registered.Inc()
		c.met.workersLive.Set(int64(n))
	}
	if !existed {
		c.logf("cluster: worker %s joined at %s (%d live)", id, addr, n)
	}
	return n
}

// heartbeat refreshes a worker's liveness; unknown IDs report false so the
// worker re-registers.
func (c *Coordinator) heartbeat(id string) bool {
	c.mu.Lock()
	w, ok := c.workers[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	w.lastSeen.Store(time.Now().UnixNano())
	return true
}

// remove drops a worker from the registry and re-shards the ring.
func (c *Coordinator) remove(id, reason string) {
	c.mu.Lock()
	w, ok := c.workers[id]
	if ok {
		delete(c.workers, id)
		c.rebuildRingLocked()
	}
	n := len(c.workers)
	c.mu.Unlock()
	if !ok {
		return
	}
	if c.met != nil {
		c.met.workersLive.Set(int64(n))
	}
	c.logf("cluster: worker %s at %s removed (%s; %d live)", id, w.addr, reason, n)
}

// fail removes a worker after a failed dispatch or probe and counts it.
func (c *Coordinator) fail(id, reason string) {
	c.fails.Add(1)
	if c.met != nil {
		c.met.failures.Inc()
	}
	c.remove(id, reason)
}

func (c *Coordinator) rebuildRingLocked() {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	c.ring = newRing(ids)
}

func (c *Coordinator) currentRing() *ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

func (c *Coordinator) workerByID(id string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[id]
}

// workerInfos snapshots the registry for /v1/cluster/workers.
func (c *Coordinator) workerInfos() []api.WorkerInfo {
	c.mu.Lock()
	ws := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	now := time.Now()
	out := make([]api.WorkerInfo, len(ws))
	for i, w := range ws {
		out[i] = api.WorkerInfo{
			ID:         w.id,
			Addr:       w.addr,
			LastSeenMS: now.Sub(time.Unix(0, w.lastSeen.Load())).Milliseconds(),
			Jobs:       w.jobs.Load(),
		}
	}
	slices.SortFunc(out, func(a, b api.WorkerInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// healthLoop probes workers whose liveness has gone stale and removes the
// unreachable ones, re-sharding their key range onto survivors.
func (c *Coordinator) healthLoop() {
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopped:
			return
		case <-t.C:
		}
		c.mu.Lock()
		stale := make([]*workerState, 0)
		cutoff := time.Now().Add(-c.opts.WorkerTimeout).UnixNano()
		for _, w := range c.workers {
			// A worker with a dispatch on the wire is not probed: the
			// dispatch outcome is itself the health verdict (a transport
			// failure removes the worker immediately), and long simulations
			// legitimately delay both heartbeats and probe responses.
			if w.lastSeen.Load() < cutoff && w.inflight.Load() == 0 {
				stale = append(stale, w)
			}
		}
		c.mu.Unlock()
		for _, w := range stale {
			if c.probe(w) {
				w.lastSeen.Store(time.Now().UnixNano())
				continue
			}
			c.fail(w.id, "missed heartbeats and failed health probe")
		}
	}
}

// probe performs one short health check against a worker.
func (c *Coordinator) probe(w *workerState) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.WorkerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// errNoWorkers reports an empty ring.
var errNoWorkers = errors.New("cluster: no live workers")

// jobError is a worker's definitive answer that the job itself failed (as
// opposed to the worker being unreachable): simulation is deterministic,
// so retrying on another worker would fail identically.
type jobError struct{ msg string }

func (e *jobError) Error() string { return e.msg }

// resolve refuses the run fields the cluster cannot honour — a trace, a
// checkpoint and a deadline are per-run state a shared, cached result
// cannot carry — and resolves the rest to its engine job. Coordinator and
// worker both call it, so they derive the same job and key.
func resolve(spec api.RunRequest) (engine.Job, error) {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"trace", spec.Trace},
		{"trace_events", spec.TraceEvents != 0},
		{"checkpoint", spec.Checkpoint != ""},
		{"timeout_ms", spec.TimeoutMS != 0},
	} {
		if f.set {
			return engine.Job{}, api.BadRequest("the cluster does not serve %q", f.name)
		}
	}
	prog, cfg, err := spec.Resolve()
	return engine.Job{Program: prog, Config: cfg}, err
}

// execute answers one run through the tiers: memory LRU, persistent store,
// then dispatch to the key's ring owners with retry/re-shard on worker
// failure. The result names its key, the serving tier (memory/store/
// computed) and, for computed results, the worker.
func (c *Coordinator) execute(ctx context.Context, spec api.RunRequest) (api.RunResult, error) {
	job, err := resolve(spec)
	if err != nil {
		return api.RunResult{}, err
	}
	key := string(job.Key())
	start := time.Now()
	res, source, workerID, err := c.answer(ctx, spec, key)
	if err != nil {
		return api.RunResult{}, err
	}
	if c.met != nil {
		c.met.jobLatency.Observe(uint64(time.Since(start).Milliseconds()))
	}
	return api.RunResult{Key: key, Source: source, Worker: workerID, Result: res}, nil
}

// answer finds key's result in the first tier that holds it, dispatching
// spec to a worker when none does.
func (c *Coordinator) answer(ctx context.Context, spec api.RunRequest, key string) (res sim.Result, source, workerID string, err error) {
	if res, ok := c.lru.Get(key); ok {
		if c.met != nil {
			c.met.memHits.Inc()
		}
		return res, api.SourceMemory, "", nil
	}
	if c.store != nil {
		res, ok, serr := c.store.Get(key)
		if serr != nil {
			// A failed store read (including a checksum mismatch) must not
			// take the cluster down: log, recompute, and overwrite.
			c.logf("cluster: store read for %s: %v (recomputing)", key, serr)
		} else if ok {
			c.lru.Put(key, res)
			if c.met != nil {
				c.met.storeHits.Inc()
			}
			return res, api.SourceStore, "", nil
		}
	}

	c.active.Add(1)
	defer c.active.Add(-1)

	attempt := 0
	for {
		owners := c.currentRing().owners(engine.Key(key), maxAttempts)
		if len(owners) == 0 {
			return sim.Result{}, "", "", errNoWorkers
		}
		var lastErr error
		progressed := false
		for _, id := range owners {
			w := c.workerByID(id)
			if w == nil {
				continue // removed since the ring snapshot
			}
			if attempt > 0 {
				c.retries.Add(1)
				if c.met != nil {
					c.met.retries.Inc()
				}
			}
			attempt++
			res, derr := c.dispatch(ctx, w, spec, key)
			if derr == nil {
				c.lru.Put(key, res)
				if c.store != nil {
					if perr := c.store.Put(key, res); perr != nil {
						c.logf("cluster: store write for %s: %v", key, perr)
					}
				}
				if c.met != nil {
					c.met.computed.Inc()
					c.met.routedTo(id).Inc()
				}
				return res, api.SourceComputed, id, nil
			}
			if ctx.Err() != nil {
				return sim.Result{}, "", "", ctx.Err()
			}
			var je *jobError
			if errors.As(derr, &je) {
				// The worker is healthy; the job itself failed. Deterministic
				// simulation fails the same way everywhere — don't retry.
				return sim.Result{}, "", "", fmt.Errorf("cluster: worker %s: %s", id, je.msg)
			}
			lastErr = derr
			progressed = true
			c.fail(id, fmt.Sprintf("dispatch failed: %v", derr))
		}
		if !progressed {
			// Every snapshot owner vanished before we reached it; re-snapshot.
			continue
		}
		// All owners in this snapshot failed; the ring has been rebuilt
		// without them. If survivors remain, one more pass covers them.
		if len(c.currentRing().members()) == 0 {
			return sim.Result{}, "", "", fmt.Errorf("cluster: all workers failed (last: %v)", lastErr)
		}
	}
}

// dispatch sends one job to one worker and decodes the result, verifying
// the worker derived the same canonical key.
func (c *Coordinator) dispatch(ctx context.Context, w *workerState, spec api.RunRequest, key string) (sim.Result, error) {
	raw, err := json.Marshal(api.ExecuteRequest{Spec: spec, Key: key})
	if err != nil {
		return sim.Result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.addr+"/internal/v1/execute", bytes.NewReader(raw))
	if err != nil {
		return sim.Result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	w.inflight.Add(1)
	resp, err := c.client.Do(req)
	w.inflight.Add(-1)
	if err != nil {
		return sim.Result{}, err // transport failure: worker presumed dead
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		var e api.Error
		errMsg := string(bytes.TrimSpace(msg))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			errMsg = e.Error
		}
		// A well-formed error reply proves the worker is alive and rejected
		// the job itself; an unparseable non-200 is treated as worker
		// failure.
		if resp.StatusCode == http.StatusBadRequest ||
			resp.StatusCode == http.StatusConflict ||
			resp.StatusCode == http.StatusInternalServerError {
			return sim.Result{}, &jobError{msg: fmt.Sprintf("%s: %s", resp.Status, errMsg)}
		}
		return sim.Result{}, fmt.Errorf("worker %s: %s: %s", w.id, resp.Status, errMsg)
	}
	var out api.ExecuteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return sim.Result{}, fmt.Errorf("worker %s: decoding response: %w", w.id, err)
	}
	if out.Key != key {
		return sim.Result{}, &jobError{msg: fmt.Sprintf(
			"cache-key mismatch: coordinator %s, worker %s (mixed cluster versions?)", key, out.Key)}
	}
	w.jobs.Add(1)
	w.lastSeen.Store(time.Now().UnixNano())
	return out.Result, nil
}

// Stats is a point-in-time snapshot of cluster activity.
type Stats struct {
	Workers       []api.WorkerInfo `json:"workers"`
	Runs          uint64           `json:"runs"`
	Sweeps        uint64           `json:"sweeps"`
	Retries       uint64           `json:"retries"`
	WorkerFails   uint64           `json:"worker_failures"`
	ActiveJobs    int64            `json:"active_jobs"`
	MemoryEntries int              `json:"memory_entries"`
	RateClients   int              `json:"rate_clients"`
	Store         *store.Stats     `json:"store,omitempty"`
	UptimeMS      int64            `json:"uptime_ms"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Workers:       c.workerInfos(),
		Runs:          c.runs.Load(),
		Sweeps:        c.sweeps.Load(),
		Retries:       c.retries.Load(),
		WorkerFails:   c.fails.Load(),
		ActiveJobs:    c.active.Load(),
		MemoryEntries: c.lru.Len(),
		RateClients:   c.limiter.clients(),
		UptimeMS:      time.Since(c.start).Milliseconds(),
	}
	if c.store != nil {
		ss := c.store.Stats()
		st.Store = &ss
	}
	return st
}
