package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync/atomic"
)

// TraceSink receives trace events. Implementations need not be safe for
// concurrent use unless documented otherwise: a Core emits from a single
// goroutine, and each run should be given its own sink (or a sink that
// documents concurrency, like CountingSink).
type TraceSink interface {
	Emit(e Event)
}

// BatchSink is an optional TraceSink extension for sinks that can absorb a
// slice of events in one call. Emitters that buffer events internally (the
// pipeline core) detect it and deliver batches, amortising the per-event
// interface dispatch; the events slice is only valid for the duration of
// the call.
type BatchSink interface {
	TraceSink
	EmitBatch(events []Event)
}

// KindSet is a bit set of event kinds for filtering.
type KindSet uint32

// Kinds builds a set from the given kinds.
func Kinds(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether the set contains k. The zero set is treated as
// "all kinds" by FilterSink.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// JSONLSink writes one JSON object per event to a buffered writer. Call
// Close (or Flush) when done; events buffered but not flushed are lost
// otherwise. Not safe for concurrent use.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
	n   uint64
}

// NewJSONLSink wraps w in a buffered JSONL event writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 128)}
}

// Emit writes the event as one JSON line.
func (s *JSONLSink) Emit(e Event) {
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
	s.n++
}

// Count returns the number of events written.
func (s *JSONLSink) Count() uint64 { return s.n }

// Flush forces buffered lines to the underlying writer.
func (s *JSONLSink) Flush() error { return s.w.Flush() }

// Close flushes the sink. It implements io.Closer so callers can defer a
// generic cleanup.
func (s *JSONLSink) Close() error { return s.Flush() }

// RingSink retains the most recent events in a bounded ring buffer, so a
// long run can be traced with bounded memory and the tail inspected
// afterwards. Not safe for concurrent use.
type RingSink struct {
	events  []Event
	next    int
	wrapped bool
	dropped uint64
	// droppedC mirrors dropped into a registry counter when attached via
	// AttachMetrics, so silent eviction becomes observable on dashboards.
	droppedC *Counter
}

// NewRingSink builds a ring retaining up to capacity events; capacity must
// be positive.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		panic("obs: RingSink capacity must be positive")
	}
	return &RingSink{events: make([]Event, 0, capacity)}
}

// Emit records the event, evicting the oldest once the ring is full.
func (s *RingSink) Emit(e Event) {
	if len(s.events) < cap(s.events) {
		s.events = append(s.events, e)
		return
	}
	s.events[s.next] = e
	s.next = (s.next + 1) % cap(s.events)
	s.wrapped = true
	s.dropped++
	if s.droppedC != nil {
		s.droppedC.Inc()
	}
}

// EmitBatch records a batch of events in order (implementing BatchSink).
func (s *RingSink) EmitBatch(events []Event) {
	for _, e := range events {
		s.Emit(e)
	}
}

// AttachMetrics registers the ring's eviction count with the registry as
// obs_trace_ring_dropped_events_total: every event silently dropped to make
// room after the attachment increments the counter. Drops that happened
// before attachment are folded in immediately, so the counter always equals
// Dropped() for a single attached ring.
func (s *RingSink) AttachMetrics(m *Metrics, labels ...Label) {
	s.droppedC = m.Counter("obs_trace_ring_dropped_events_total",
		"Trace events evicted from a bounded ring sink to make room for newer ones.",
		labels...)
	if s.dropped > 0 {
		s.droppedC.Add(s.dropped)
	}
}

// Events returns the retained events in emission order (oldest first).
func (s *RingSink) Events() []Event {
	if !s.wrapped {
		out := make([]Event, len(s.events))
		copy(out, s.events)
		return out
	}
	out := make([]Event, 0, len(s.events))
	out = append(out, s.events[s.next:]...)
	out = append(out, s.events[:s.next]...)
	return out
}

// Dropped returns how many events were evicted to make room.
func (s *RingSink) Dropped() uint64 { return s.dropped }

// Len returns the number of retained events.
func (s *RingSink) Len() int { return len(s.events) }

// CountingSink counts events per kind, optionally forwarding to a next
// sink. A nil next makes it a pure counter. The counters are atomic, so a
// CountingSink may be shared across concurrently emitting runs (the
// forwarding target must then be concurrency-safe too); counts may also be
// read while runs are still emitting.
type CountingSink struct {
	next   TraceSink
	counts [NumKinds]atomic.Uint64
	total  atomic.Uint64
}

// NewCountingSink builds a counting sink forwarding to next (nil = none).
func NewCountingSink(next TraceSink) *CountingSink {
	return &CountingSink{next: next}
}

// Emit counts the event and forwards it.
func (s *CountingSink) Emit(e Event) {
	if int(e.Kind) < NumKinds {
		s.counts[e.Kind].Add(1)
	}
	s.total.Add(1)
	if s.next != nil {
		s.next.Emit(e)
	}
}

// EmitBatch counts a batch with one atomic add per kind present instead of
// two per event, then forwards it (as a batch, when the next sink supports
// that).
func (s *CountingSink) EmitBatch(events []Event) {
	var perKind [NumKinds]uint64
	for i := range events {
		if int(events[i].Kind) < NumKinds {
			perKind[events[i].Kind]++
		}
	}
	for k := range perKind {
		if perKind[k] != 0 {
			s.counts[k].Add(perKind[k])
		}
	}
	s.total.Add(uint64(len(events)))
	switch next := s.next.(type) {
	case nil:
	case BatchSink:
		next.EmitBatch(events)
	default:
		for _, e := range events {
			next.Emit(e)
		}
	}
}

// Count returns the number of events seen of the given kind.
func (s *CountingSink) Count(k Kind) uint64 {
	if int(k) >= NumKinds {
		return 0
	}
	return s.counts[k].Load()
}

// Total returns the number of events seen across all kinds.
func (s *CountingSink) Total() uint64 { return s.total.Load() }

// FilterSink forwards only events matching a kind set and an optional cycle
// window. The zero Kinds set passes every kind; the window is inclusive and
// only applied when enabled via SetWindow (so a window may legitimately
// start at cycle 0).
type FilterSink struct {
	next     TraceSink
	kinds    KindSet
	windowed bool
	from, to uint64
}

// NewFilterSink builds a filter forwarding to next. A zero kinds set
// passes all kinds.
func NewFilterSink(next TraceSink, kinds KindSet) *FilterSink {
	if next == nil {
		panic("obs: FilterSink requires a next sink")
	}
	return &FilterSink{next: next, kinds: kinds}
}

// SetWindow restricts forwarding to events with from <= Cycle <= to.
func (s *FilterSink) SetWindow(from, to uint64) *FilterSink {
	s.windowed, s.from, s.to = true, from, to
	return s
}

// Emit forwards the event if it passes the filters.
func (s *FilterSink) Emit(e Event) {
	if s.kinds != 0 && !s.kinds.Has(e.Kind) {
		return
	}
	if s.windowed && (e.Cycle < s.from || e.Cycle > s.to) {
		return
	}
	s.next.Emit(e)
}

// multiSink fans out to several sinks.
type multiSink []TraceSink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi fans events out to every sink in order. Nil sinks are skipped; a
// single non-nil sink is returned unwrapped.
func Multi(sinks ...TraceSink) TraceSink {
	out := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// TextSink writes human-readable one-line summaries, the successor of the
// old printf tracing. Intended for interactive debugging only; machine
// consumers should use JSONLSink.
type TextSink struct {
	w   io.Writer
	buf []byte
}

// NewTextSink builds a text sink on w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w, buf: make([]byte, 0, 128)} }

// Emit writes "[cycle] kind seq=… pc=… …".
func (s *TextSink) Emit(e Event) {
	b := s.buf[:0]
	b = append(b, '[')
	b = pad6(b, e.Cycle)
	b = append(b, "] "...)
	b = append(b, e.Kind.String()...)
	if e.Seq != 0 {
		b = append(b, " seq="...)
		b = strconv.AppendUint(b, e.Seq, 10)
	}
	if e.Seq != 0 || e.PC != 0 {
		b = append(b, " pc="...)
		b = strconv.AppendUint(b, e.PC, 10)
	}
	if e.Addr != 0 {
		b = append(b, " addr=0x"...)
		b = strconv.AppendUint(b, e.Addr, 16)
	}
	if e.Value != 0 {
		b = append(b, " val="...)
		b = strconv.AppendInt(b, e.Value, 10)
	}
	if e.Kind == KindLoadIssue || e.Kind == KindDoppIssue || e.Kind == KindCacheAccess {
		b = append(b, " level="...)
		if int(e.Level) < len(levelNames) {
			b = append(b, levelNames[e.Level]...)
		}
	}
	if e.Lat != 0 {
		b = append(b, " lat="...)
		b = strconv.AppendUint(b, e.Lat, 10)
	}
	if e.Aux != 0 {
		b = append(b, " aux="...)
		b = strconv.AppendUint(b, e.Aux, 10)
	}
	if e.Flags&FlagMerged != 0 {
		b = append(b, " merged"...)
	}
	b = append(b, '\n')
	s.buf = b
	s.w.Write(b)
}

// pad6 right-aligns v in a 6-character field (matching the old trace
// format's cycle column).
func pad6(b []byte, v uint64) []byte {
	n := 1
	for x := v; x >= 10; x /= 10 {
		n++
	}
	for ; n < 6; n++ {
		b = append(b, ' ')
	}
	return strconv.AppendUint(b, v, 10)
}
