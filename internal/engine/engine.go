package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"doppelganger/internal/obs"
	"doppelganger/sim"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers is the worker-pool size; values <= 0 use
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize bounds the LRU result cache in entries. Zero uses
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// JobTimeout bounds each job's wall-clock execution unless the job
	// carries its own Timeout. Zero means no limit.
	JobTimeout time.Duration
	// Metrics, when non-nil, receives engine activity (queue depth, cache
	// hits and misses, job latency) and every executed job's simulator
	// metrics (live histograms plus end-of-run counters). The registry
	// never influences results or cache keys.
	Metrics *obs.Metrics
}

// DefaultCacheSize is the result-cache capacity when Options.CacheSize is
// zero. A full paper sweep is 8 cells per workload, so this comfortably
// holds many sweeps' worth of results.
const DefaultCacheSize = 4096

// cached is one result-cache entry: the run's result and, for observed jobs
// (Job.Observe non-empty; the clause set is part of the key, so a hit
// always carries the observation the caller asked for), its contract
// observation. The observation is zero for blind jobs.
type cached struct {
	res sim.Result
	obs sim.Observation
}

// Engine executes simulation jobs on a bounded worker pool with result
// caching and in-flight deduplication. It is safe for concurrent use.
type Engine struct {
	workers    int
	jobTimeout time.Duration
	cache      *LRU[Key, cached]
	queue      chan *task
	quit       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup

	mu       sync.Mutex
	inflight map[Key]*task

	start time.Time
	ctr   counters
	met   *engineMetrics
}

// engineMetrics caches the engine's registry handles.
type engineMetrics struct {
	reg        *obs.Metrics
	queueDepth *obs.Gauge
	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	jobs       *obs.Counter
	jobErrors  *obs.Counter
	jobLatency *obs.Histogram
}

// jobLatencyBuckets are milliseconds; paper-harness jobs run from
// sub-millisecond (cached microbenchmarks) to tens of seconds (full
// workload sweeps).
var jobLatencyBuckets = []uint64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

func newEngineMetrics(m *obs.Metrics) *engineMetrics {
	if m == nil {
		return nil
	}
	return &engineMetrics{
		reg:        m,
		queueDepth: m.Gauge("engine_queue_depth", "Submissions waiting for a free worker."),
		cacheHits:  m.Counter("engine_cache_hits_total", "Submissions served from the result cache."),
		cacheMiss:  m.Counter("engine_cache_misses_total", "Submissions that had to enqueue a run."),
		jobs:       m.Counter("engine_jobs_total", "Simulations executed to completion."),
		jobErrors:  m.Counter("engine_job_errors_total", "Jobs that finished with an error."),
		jobLatency: m.Histogram("engine_job_duration_ms", "Wall-clock job execution time in milliseconds.", jobLatencyBuckets),
	}
}

// task is one queued execution; done is closed once res/err are set.
type task struct {
	job  Job
	key  Key
	ctx  context.Context
	done chan struct{}
	res  sim.Result
	obs  sim.Observation
	err  error
}

// New starts an engine and its worker pool.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	e := &Engine{
		workers:    workers,
		jobTimeout: opts.JobTimeout,
		cache:      NewLRU[Key, cached](cacheSize),
		queue:      make(chan *task),
		quit:       make(chan struct{}),
		inflight:   make(map[Key]*task),
		start:      time.Now(),
		met:        newEngineMetrics(opts.Metrics),
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Close stops the worker pool and waits for in-progress jobs to wind down.
// Submissions waiting on queued-but-unstarted jobs return ErrClosed.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.quit) })
	e.wg.Wait()
}

// Stats returns a snapshot of engine activity.
func (e *Engine) Stats() Stats {
	return e.ctr.snapshot(e.workers, e.cache.Len(), time.Since(e.start))
}

// Submit runs one job and returns its result. Identical jobs (same Key) hit
// the result cache, and an identical job already executing is joined rather
// than duplicated. Submit blocks until the job completes, ctx is cancelled,
// or the engine closes.
func (e *Engine) Submit(ctx context.Context, job Job) (sim.Result, error) {
	res, _, err := e.SubmitObserved(ctx, job)
	return res, err
}

// SubmitObserved is Submit for jobs that also request a contract
// observation (Job.Observe). The observation is captured by the executing
// worker and cached alongside the result; for a job with an empty Observe
// set it is zero.
func (e *Engine) SubmitObserved(ctx context.Context, job Job) (sim.Result, sim.Observation, error) {
	if job.Program == nil {
		return sim.Result{}, sim.Observation{}, errors.New("engine: job has no program")
	}
	e.ctr.submitted.Add(1)
	key := job.Key()
	if hit, ok := e.cache.Get(key); ok {
		e.ctr.cacheHits.Add(1)
		if e.met != nil {
			e.met.cacheHits.Inc()
		}
		return hit.res, hit.obs, nil
	}
	e.ctr.cacheMiss.Add(1)
	if e.met != nil {
		e.met.cacheMiss.Inc()
	}

	e.mu.Lock()
	if t, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		e.ctr.coalesced.Add(1)
		res, obsv, err := e.wait(ctx, t)
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The joined task died of its owner's context, not ours. Its
			// failure is not this submission's answer (and is never
			// cached), so run the job properly under the live context.
			return e.SubmitObserved(ctx, job)
		}
		return res, obsv, err
	}
	t := &task{job: job, key: key, ctx: ctx, done: make(chan struct{})}
	e.inflight[key] = t
	e.mu.Unlock()

	if e.met != nil {
		e.met.queueDepth.Inc()
	}
	select {
	case e.queue <- t:
	case <-ctx.Done():
		if e.met != nil {
			e.met.queueDepth.Dec()
		}
		e.abandon(t)
		return sim.Result{}, sim.Observation{}, ctx.Err()
	case <-e.quit:
		if e.met != nil {
			e.met.queueDepth.Dec()
		}
		e.abandon(t)
		return sim.Result{}, sim.Observation{}, ErrClosed
	}
	return e.wait(ctx, t)
}

// wait blocks until the task settles or the caller gives up.
func (e *Engine) wait(ctx context.Context, t *task) (sim.Result, sim.Observation, error) {
	select {
	case <-t.done:
		return t.res, t.obs, t.err
	case <-ctx.Done():
		return sim.Result{}, sim.Observation{}, ctx.Err()
	case <-e.quit:
		return sim.Result{}, sim.Observation{}, ErrClosed
	}
}

// abandon removes a never-enqueued task from the in-flight index so a later
// identical submission does not join a task no worker will ever run.
func (e *Engine) abandon(t *task) {
	e.mu.Lock()
	if cur, ok := e.inflight[t.key]; ok && cur == t {
		delete(e.inflight, t.key)
	}
	e.mu.Unlock()
}
