package pipeline

import (
	"testing"

	"doppelganger/internal/obs"
	"doppelganger/internal/secure"
)

func tracedConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = secure.DoM
	cfg.AddressPrediction = true
	return cfg
}

func runTraced(t *testing.T, sink obs.TraceSink, window func(*Core)) *Core {
	t.Helper()
	c, err := New(tracedConfig(), sumLoop(64))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.SetTraceSink(sink)
	if window != nil {
		window(c)
	}
	if err := c.Run(0, 10_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return c
}

// TestCycleWindowAtZero: a window starting at cycle 0 captures the run's
// earliest events.
func TestCycleWindowAtZero(t *testing.T) {
	ring := obs.NewRingSink(1 << 16)
	runTraced(t, ring, func(c *Core) { c.SetCycleWindow(0, 10) })
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("window [0, 10] captured no events; windows starting at cycle 0 must work")
	}
	for _, e := range events {
		if e.Cycle > 10 {
			t.Errorf("event %v at cycle %d escaped window [0, 10]", e.Kind, e.Cycle)
		}
	}
}

func TestCycleWindowBounds(t *testing.T) {
	ring := obs.NewRingSink(1 << 16)
	runTraced(t, ring, func(c *Core) { c.SetCycleWindow(20, 40) })
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("window [20, 40] captured no events")
	}
	for _, e := range events {
		if e.Cycle < 20 || e.Cycle > 40 {
			t.Errorf("event %v at cycle %d escaped window [20, 40]", e.Kind, e.Cycle)
		}
	}
}

// TestTracingPreservesBehaviour: attaching a sink and a metrics registry
// must not change a single architectural or microarchitectural outcome.
func TestTracingPreservesBehaviour(t *testing.T) {
	plain, err := New(tracedConfig(), sumLoop(64))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := plain.Run(0, 10_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}

	ring := obs.NewRingSink(1 << 20)
	traced, err := New(tracedConfig(), sumLoop(64))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	traced.SetTraceSink(ring)
	traced.SetMetrics(obs.NewMetrics())
	if err := traced.Run(0, 10_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if ring.Len() == 0 {
		t.Error("traced run emitted no events")
	}
	if got, want := traced.ArchState().Checksum(), plain.ArchState().Checksum(); got != want {
		t.Errorf("traced checksum %#x != untraced %#x", got, want)
	}
	if got, want := traced.StatsSnapshot(), plain.StatsSnapshot(); got != want {
		t.Errorf("traced stats diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestShadowCensus checks the Stats snapshot picks up the trackers' counts.
func TestShadowCensus(t *testing.T) {
	c := runTraced(t, obs.NewRingSink(16), nil)
	st := c.StatsSnapshot()
	if st.ShadowsCast == 0 {
		t.Error("ShadowsCast = 0; branches and stores must have cast shadows")
	}
	if st.ShadowPeak == 0 || st.ShadowPeak > uint64(tracedConfig().ROBSize) {
		t.Errorf("ShadowPeak = %d, want within (0, ROBSize]", st.ShadowPeak)
	}
}

// TestShadowLifetimeHistogram checks the per-event histogram fills in and
// its total matches resolved (not squashed) shadows.
func TestShadowLifetimeHistogram(t *testing.T) {
	m := obs.NewMetrics()
	c, err := New(tracedConfig(), sumLoop(64))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.SetMetrics(m)
	if err := c.Run(0, 10_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := m.Histogram("sim_shadow_lifetime_cycles", "", obs.LifetimeBuckets,
		obs.L("scheme", "dom"), obs.L("ap", "true"))
	if h.Count() == 0 {
		t.Fatal("shadow-lifetime histogram is empty")
	}
	if h.Count() > c.StatsSnapshot().ShadowsCast {
		t.Errorf("histogram count %d exceeds shadows cast %d", h.Count(), c.StatsSnapshot().ShadowsCast)
	}
}
