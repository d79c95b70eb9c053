package main

import (
	"math/rand"
	"sync"
	"time"
)

// The load generator drives doppeld from one client process over at most
// two keep-alive connections. The open loop sends on a Poisson schedule
// regardless of how the server keeps up, so a stall delays every request
// due behind it; each request is timed from when it was due, not from when
// a connection got to send it.

// clock is the generator's time source, as an offset from its start; tests
// substitute a fake.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type realClock struct{ t0 time.Time }

func (c realClock) now() time.Duration { return time.Since(c.t0) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one open-loop request's timeline.
type sample struct {
	due        time.Duration // when the schedule said to send it
	dispatched time.Duration // when the generator released it
	started    time.Duration // when a connection began sending it
	done       time.Duration // when its response was read
	ok         bool
}

// poissonSchedule returns the due times of a Poisson stream at rate
// requests per second over length.
func poissonSchedule(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= length {
			return due
		}
		due = append(due, t)
	}
}

// openLoop releases request i at due[i] to conns senders that call do(i)
// and returns every request's timeline.
func openLoop(clk clock, due []time.Duration, conns int, do func(i int) bool) []sample {
	s := make([]sample, len(due))
	queue := make(chan int, len(due)) // one slot per request: dispatch never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s[i].started = clk.now()
				s[i].ok = do(i)
				s[i].done = clk.now()
			}
		}()
	}
	for i, d := range due {
		clk.sleepUntil(d)
		s[i].due, s[i].dispatched = d, clk.now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return s
}

// closedLoop keeps conns requests in flight until the clock passes until:
// each connection sends its next request as soon as the last returns. It
// returns how many requests succeeded.
func closedLoop(clk clock, until time.Duration, conns int, do func() bool) (completed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.now() < until {
				if do() {
					mu.Lock()
					completed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return completed
}

// latencies are each request's latency from its due time, in ms.
func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.done - x.due)
	}
	return out
}

// lateness is how far behind schedule the generator released each
// request, in ms.
func lateness(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.dispatched - x.due)
	}
	return out
}

// backlogMax is the most earlier requests still waiting for a connection
// when a request is released.
func backlogMax(s []sample) int {
	most := 0
	for i := range s {
		n := 0
		for j := 0; j < i; j++ {
			if s[j].started > s[i].dispatched {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}
