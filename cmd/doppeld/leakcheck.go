package main

import (
	"net/http"
	"runtime"

	"doppelganger/api"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
)

// Contract sweeps run 2 × seeds × configs full simulations in the request
// goroutine's worker pool, so the seed count is clamped server-side: a
// defaulted request stays interactive, and nobody turns the endpoint into
// a batch farm by accident.
const (
	defaultLeakcheckSeeds = 32
	maxLeakcheckSeeds     = 512
)

// handleLeakcheck evaluates the contract lattice over randomized
// differential gadget pairs and reports the per-scheme contract matrix:
// for each requested scheme × ±AP config, which observer clauses the
// scheme's executions stay indistinguishable under.
func (s *server) handleLeakcheck(w http.ResponseWriter, r *http.Request) {
	var req api.LeakcheckRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	schemes, aps, err := secure.ParseMatrix(req.Schemes, req.AP)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfgs := leakcheck.Configs(schemes, aps)
	seeds := req.Seeds
	if seeds <= 0 {
		seeds = defaultLeakcheckSeeds
	}
	if seeds > maxLeakcheckSeeds {
		seeds = maxLeakcheckSeeds
	}

	results, err := leakcheck.ContractSweep(r.Context(), cfgs, req.FirstSeed, seeds, runtime.GOMAXPROCS(0))
	if err != nil {
		api.Fail(w, err)
		return
	}
	resp := api.LeakcheckResponse{
		Schema:    api.SchemaVersion,
		ID:        s.newID("leakcheck"),
		Seeds:     seeds,
		FirstSeed: req.FirstSeed,
	}
	for _, res := range results {
		resp.Matrix = append(resp.Matrix, res.Row())
	}
	s.results.put(resp.ID, resp)
	api.WriteJSON(w, http.StatusOK, resp)
}
