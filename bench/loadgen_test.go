package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock jumps straight to any time slept until, then runs lag late.
type fakeClock struct {
	mu  sync.Mutex
	t   time.Duration
	lag time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t) + c.lag
}

func TestOpenLoopMeasuresLatenessAgainstSchedule(t *testing.T) {
	clk := &fakeClock{lag: 2 * time.Millisecond}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	var sent sync.Map
	s := openLoop(clk, due, 1, func(i int) bool { sent.Store(i, true); return true })
	for i, x := range s {
		if _, ok := sent.Load(i); !ok || !x.ok {
			t.Fatalf("request %d was not sent", i)
		}
		if x.due != due[i] {
			t.Fatalf("request %d due %v, want %v", i, x.due, due[i])
		}
	}
	for i, l := range lateness(s) {
		if l != 2 {
			t.Errorf("request %d released %v ms late, want 2", i, l)
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// Request 0 stalls for 100 ms on the only connection; 1 and 2 are due
	// during the stall, wait for it, then take 1 ms each.
	s := []sample{
		{due: 0, dispatched: 0, started: 0, done: 100 * ms},
		{due: 10 * ms, dispatched: 10 * ms, started: 100 * ms, done: 101 * ms},
		{due: 20 * ms, dispatched: 20 * ms, started: 101 * ms, done: 102 * ms},
		{due: 200 * ms, dispatched: 200 * ms, started: 200 * ms, done: 201 * ms},
	}
	want := []float64{100, 91, 82, 1}
	for i, l := range latencies(s) {
		if l != want[i] {
			t.Errorf("request %d latency %v ms, want %v (the stall's wait counts)", i, l, want[i])
		}
	}
	if b := backlogMax(s); b != 1 {
		t.Errorf("backlog high-water %d, want 1 (request 1 still queued when 2 arrived)", b)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 100, 100*time.Second)
	if n := len(due); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals at 100/s over 100 s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("schedule not in order")
		}
	}
}
