package api

import "doppelganger/sim"

// Result sources: which tier of the coordinator answered a run or a sweep
// cell.
const (
	// SourceMemory: served from the coordinator's in-memory LRU.
	SourceMemory = "memory"
	// SourceStore: served from the persistent result tier.
	SourceStore = "store"
	// SourceComputed: dispatched to a worker (the Worker field names which
	// one).
	SourceComputed = "computed"
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

// SummaryCell is one completed cell of a coordinator sweep. It is
// SweepCell plus the serving tier and a per-cell error, in its own field
// order.
type SummaryCell struct {
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

// SweepSummary is the coordinator's final sweep payload (the whole
// response when not streaming; the terminal "done" event when streaming).
type SweepSummary struct {
	Type       string        `json:"type"` // "done"
	Cells      []SummaryCell `json:"cells"`
	Errors     int           `json:"errors"`
	DurationMS int64         `json:"duration_ms"`
	// Sources tallies cells by serving tier.
	Sources map[string]int `json:"sources"`
}

// RegisterRequest announces a worker to the coordinator. Re-registering an
// existing ID replaces its address (a restarted worker), never duplicates
// it on the ring.
type RegisterRequest struct {
	// ID is the worker's stable identity (sharding is by ID, so a worker
	// that restarts under the same ID reclaims its key range).
	ID string `json:"id"`
	// Addr is the worker's advertised base address, host:port.
	Addr string `json:"addr"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// Workers is the live worker count after this registration.
	Workers int `json:"workers"`
	// HeartbeatMS is how often the coordinator expects heartbeats.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest refreshes a worker's liveness.
type HeartbeatRequest struct {
	ID string `json:"id"`
}

// DeregisterRequest removes a worker from the ring (graceful shutdown).
type DeregisterRequest struct {
	ID string `json:"id"`
}

// ExecuteRequest asks a worker to run one job.
type ExecuteRequest struct {
	// Spec is the job as a run request; the coordinator sets only the
	// workload, scale, scheme, AP and limit fields.
	Spec RunRequest `json:"spec"`
	// Key is the coordinator's canonical engine key for the spec. The
	// worker re-derives it and refuses on mismatch: a disagreement means
	// the two binaries encode cache keys differently (version skew), and
	// silently proceeding would corrupt the shared result tier.
	Key string `json:"key"`
}

// ExecuteResponse is a worker's completed job.
type ExecuteResponse struct {
	Key    string     `json:"key"`
	Worker string     `json:"worker"`
	Result sim.Result `json:"result"`
}

// WorkerInfo describes one registered worker on /v1/cluster/workers.
type WorkerInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// LastSeenMS is milliseconds since the last heartbeat or successful
	// dispatch.
	LastSeenMS int64 `json:"last_seen_ms"`
	// Jobs counts jobs dispatched to this worker.
	Jobs uint64 `json:"jobs"`
}
