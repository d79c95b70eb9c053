package pipeline

import (
	"encoding/json"
	"os"
	"testing"

	"doppelganger/internal/secure"
)

// TestRegistryComplete holds every scheme in the internal/secure registry
// to the scrutiny the paper's schemes get: each one is in the fuzz set,
// has a contract-matrix golden row with and without address prediction,
// and every defined mutation is planted by a row into a secure scheme. Adding a registry
// row without the rest fails here.
func TestRegistryComplete(t *testing.T) {
	fuzzed := map[secure.Scheme]bool{}
	for _, s := range fuzzSchemes {
		fuzzed[s] = true
	}

	data, err := os.ReadFile("../leakcheck/testdata/contract_matrix.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Matrix []struct {
			Config string `json:"config"`
		} `json:"matrix"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, e := range golden.Matrix {
		rows[e.Config] = true
	}

	for _, s := range secure.AllSchemes() {
		if !fuzzed[s] {
			t.Errorf("%s: missing from the fuzz set", s)
		}
		for _, row := range []string{s.String(), s.String() + "+ap"} {
			if !rows[row] {
				t.Errorf("%s: no contract-matrix golden row", row)
			}
		}
	}

	plantedBy := map[secure.Mutation]bool{}
	for _, m := range secure.Mutations() {
		plantedBy[m] = true
	}
	for m := secure.MutNone + 1; m.Valid(); m++ {
		if !plantedBy[m] {
			t.Errorf("mutation %v is planted by no registry row", uint8(m))
		}
	}
	for _, m := range secure.Mutations() {
		s, _ := m.Target()
		if !s.Valid() || s.Info().Threat == 0 {
			t.Errorf("mutation %s targets %s, not a secure registry scheme", m, s)
		}
		if got, err := secure.ParseMutation(m.String()); err != nil || got != m {
			t.Errorf("mutation %v: name %q does not round-trip (%v, %v)", uint8(m), m, got, err)
		}
	}
}
