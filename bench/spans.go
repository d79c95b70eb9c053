package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op (a cell, a pair, a
// batch, a request) share OpID; Parent is the span that made the call (0 at
// the root of an op). Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	OpID   int64  `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's name belongs to: its first dotted element.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use, since the decomposed workloads record from two workers.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	cost  time.Duration // time spent inside add, for the overhead estimate
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span identifier, so children can name a parent whose span
// is recorded after they are.
func (r *recorder) id() int64 { return r.nextID.Add(1) }

// add records a finished span under a reserved id.
func (r *recorder) add(id, parent, op int64, name string, start, end time.Time) {
	r.addNS(id, parent, op, name, start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds())
}

// addNS records a finished span given as offsets from the recorder's start.
func (r *recorder) addNS(id, parent, op int64, name string, start, end int64) {
	t := time.Now()
	s := span{ID: id, Parent: parent, OpID: op, Name: name, Start: start, End: end}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.cost += time.Since(t)
	r.mu.Unlock()
}

// time runs f as a span named name and returns its duration.
func (r *recorder) time(parent, op int64, name string, f func()) time.Duration {
	id := r.id()
	start := time.Now()
	f()
	end := time.Now()
	r.add(id, parent, op, name, start, end)
	return end.Sub(start)
}

// durations returns the durations in milliseconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its child spans cover. Overlapping children (parallel calls made
// by one parent) count once.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writeSelfTable prints total self time per layer, largest first.
func (r *recorder) writeSelfTable(w io.Writer) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	byLayer := make(map[string]int64)
	counts := make(map[string]int)
	for _, s := range spans {
		byLayer[s.layer()] += self[s.ID]
		counts[s.layer()]++
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "bench: self time by layer (%d spans)\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.1f ms  %7d spans\n", l, float64(byLayer[l])/1e6, counts[l])
	}
}
