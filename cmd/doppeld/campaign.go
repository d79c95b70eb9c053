package main

import (
	"net/http"

	"doppelganger/api"
	"doppelganger/internal/campaign"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
)

// Campaign budgets are clamped like leakcheck seeds: each evaluation is
// two full simulations per config, so a defaulted request stays
// interactive and the ceiling keeps the endpoint out of batch-farm
// territory (persistent-corpus campaigns belong in cmd/leakcheck).
const (
	defaultCampaignBudget = 64
	maxCampaignBudget     = 1024
)

// clampCampaignBudget applies the default and the ceiling to a requested
// budget; oversized requests are clamped, not refused.
func clampCampaignBudget(budget int) int {
	if budget <= 0 {
		budget = defaultCampaignBudget
	}
	if budget > maxCampaignBudget {
		budget = maxCampaignBudget
	}
	return budget
}

// handleCampaign runs a coverage-guided leakcheck campaign on the server's
// shared engine and reports every minimized leak reproducer it found. The
// corpus is in-memory per request; a fixed seed makes the response
// reproducible.
func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req api.CampaignRequest
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
	budget := clampCampaignBudget(req.Budget)

	sum, err := campaign.Run(r.Context(), campaign.Options{
		Configs: cfgs,
		Budget:  budget,
		Seed:    req.Seed,
		Engine:  s.eng,
		Blind:   req.Blind,
	})
	if err != nil {
		api.Fail(w, err)
		return
	}
	resp := sum.Response(s.newID("campaign"), budget, req.Seed)
	s.results.put(resp.ID, resp)
	api.WriteJSON(w, http.StatusOK, resp)
}
