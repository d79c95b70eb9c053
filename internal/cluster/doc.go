// Package cluster turns doppeld into a horizontally sharded fleet. A
// coordinator process owns the cluster view: workers register with it and
// heartbeat; jobs are consistent-hashed across the live workers using the
// engine's canonical SHA-256 cache keys as the sharding function, so a
// given cell always lands on the same worker (maximizing each worker's
// local LRU hit rate) and membership changes move only the minimal key
// range. The coordinator fronts every computation with a two-level result
// tier — an in-memory LRU over a checksum-verified persistent store
// (internal/cluster/store) — so a restarted cluster replays no work.
//
// Topology:
//
//	client ──HTTP──▶ coordinator ──/internal/v1/execute──▶ worker 1..N
//	                  │  memory LRU                          (engine pool,
//	                  └─ persistent store (results.db)        local LRU)
//
// The coordinator's public surface mirrors single-node doppeld (/v1/run,
// /v1/sweep, /healthz, /stats, /metrics) and adds the cluster control plane
// (/v1/cluster/register, /heartbeat, /deregister, /workers). Requests,
// replies and their resolution come from package api, the same path
// doppeld takes; the coordinator refuses the run fields a shared, cached
// result cannot carry (trace, trace_events, checkpoint, timeout_ms). /v1/sweep can
// stream per-cell progress as Server-Sent Events or NDJSON. Admission
// control rejects work beyond the queue bound, and per-client token
// buckets rate-limit request ingress; both answer 429 with Retry-After.
//
// Failure model: a worker that dies mid-sweep is detected either by its
// dispatch failing or by missed heartbeats; its jobs are retried on the
// ring's next live owner and the ring is rebuilt without it (re-sharding
// only its share of the key space). Results are deterministic, so a retry
// on any worker yields the identical architecture checksum.
package cluster
