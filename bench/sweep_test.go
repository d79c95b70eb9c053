package main

import (
	"context"
	"testing"

	"doppelganger/internal/leakcheck"
)

// TestKnownLeaksStillLeak pins every leak the sweep check exempts: each
// entry must name a config of the sweep and still leak there, so that an
// exemption is removed together with the fix of its bug.
func TestKnownLeaksStillLeak(t *testing.T) {
	cfgs := make(map[string]leakcheck.Config)
	for _, c := range sweepConfigs() {
		cfgs[c.String()] = c
	}
	for name, seeds := range knownLeaks {
		c, ok := cfgs[name]
		if !ok {
			t.Errorf("knownLeaks names %q, which is not a config of the sweep", name)
			continue
		}
		for seed := range seeds {
			res, err := leakcheck.Sweep(context.Background(), []leakcheck.Config{c}, seed, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res[0].Leaks) == 0 {
				t.Errorf("%s no longer leaks on gadget seed %d; remove it from knownLeaks", name, seed)
			}
		}
	}
}
