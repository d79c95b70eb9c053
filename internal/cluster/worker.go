package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"doppelganger/api"
	"doppelganger/internal/engine"
)

// Worker is the data-plane surface a doppeld worker process exposes to the
// coordinator: it resolves run requests against the local workload registry
// and executes them on the process's shared engine (worker pool, local LRU,
// in-flight dedup all apply).
type Worker struct {
	// ID is the worker's cluster identity, echoed in execute responses.
	ID string
	// Eng executes the jobs.
	Eng *engine.Engine
}

// Handler serves the worker's internal execute endpoint. Mount it alongside
// the regular doppeld API.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/v1/execute", wk.handleExecute)
	return mux
}

func (wk *Worker) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req api.ExecuteRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.Fail(w, err)
		return
	}
	job, err := resolve(req.Spec)
	if err != nil {
		api.Fail(w, err)
		return
	}
	key := string(job.Key())
	if req.Key != "" && req.Key != key {
		// Version skew: this worker encodes cache keys differently from the
		// coordinator. Refuse rather than poison the shared result tier.
		api.WriteError(w, http.StatusConflict, fmt.Sprintf(
			"cache-key mismatch: coordinator derived %s, worker derived %s (mixed cluster versions?)",
			req.Key, key))
		return
	}
	res, err := wk.Eng.Submit(r.Context(), job)
	if err != nil {
		api.Fail(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.ExecuteResponse{Key: key, Worker: wk.ID, Result: res})
}

// Agent maintains a worker's membership in the cluster: it registers with
// the coordinator (retrying until reachable), heartbeats on the interval
// the coordinator announced, and deregisters on shutdown so the ring stops
// routing to this worker before the process exits.
type Agent struct {
	// Coordinator is the coordinator's base URL, e.g. "http://127.0.0.1:9000".
	Coordinator string
	// ID is this worker's stable identity.
	ID string
	// Addr is the advertised base address clients of the coordinator never
	// see but the coordinator dispatches to, e.g. "http://127.0.0.1:8081".
	Addr string
	// Client overrides the HTTP client (nil = a 5s-timeout default).
	Client *http.Client
	// Logf, when non-nil, receives membership lifecycle messages.
	Logf func(format string, args ...any)
}

func (a *Agent) client() *http.Client {
	if a.Client != nil {
		return a.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// Run registers, heartbeats until ctx is cancelled, then deregisters (on a
// fresh short-lived context — the cancelled ctx must not abort the goodbye).
// It returns once deregistration has been attempted.
func (a *Agent) Run(ctx context.Context) error {
	interval, err := a.register(ctx)
	if err != nil {
		return err
	}
	a.logf("cluster: registered %s with %s (heartbeat %v)", a.ID, a.Coordinator, interval)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			dctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := a.post(dctx, "/v1/cluster/deregister", api.DeregisterRequest{ID: a.ID}, nil); err != nil {
				a.logf("cluster: deregister failed: %v", err)
				return err
			}
			a.logf("cluster: deregistered %s", a.ID)
			return nil
		case <-t.C:
			if err := a.post(ctx, "/v1/cluster/heartbeat", api.HeartbeatRequest{ID: a.ID}, nil); err != nil && ctx.Err() == nil {
				// A missed heartbeat may mean the coordinator restarted and
				// lost its view; re-register rather than fade away.
				a.logf("cluster: heartbeat failed (%v), re-registering", err)
				if _, rerr := a.register(ctx); rerr != nil && ctx.Err() == nil {
					a.logf("cluster: re-register failed: %v", rerr)
				}
			}
		}
	}
}

// register announces the worker, retrying with backoff until the
// coordinator accepts or ctx ends. It returns the heartbeat interval the
// coordinator asked for.
func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	backoff := 100 * time.Millisecond
	for {
		var resp api.RegisterResponse
		err := a.post(ctx, "/v1/cluster/register", api.RegisterRequest{ID: a.ID, Addr: a.Addr}, &resp)
		if err == nil {
			interval := time.Duration(resp.HeartbeatMS) * time.Millisecond
			if interval <= 0 {
				interval = time.Second
			}
			return interval, nil
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("cluster: registering with %s: %w (last error: %v)", a.Coordinator, ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// post sends one JSON control-plane request and decodes the reply into out
// (when non-nil).
func (a *Agent) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
