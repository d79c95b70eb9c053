package obs

// HistogramBatch accumulates observations into plain (non-atomic) local
// state and folds them into the shared histogram on Flush. A simulator core
// observes from a single goroutine every cycle; batching turns the three
// atomic operations per observation into plain adds, leaving one atomic
// fold at the end of the run.
type HistogramBatch struct {
	h      *Histogram
	counts []uint64
	sum    uint64
	count  uint64
}

// Batch returns a local accumulator for the histogram. A batch must not be
// shared across goroutines; the histogram itself may keep serving other
// observers while batches are outstanding.
func (h *Histogram) Batch() *HistogramBatch {
	return &HistogramBatch{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one value locally.
func (b *HistogramBatch) Observe(v uint64) { b.ObserveN(v, 1) }

// ObserveN records n observations of the same value locally, as n calls
// of Observe would: a core observing a per-cycle value over a stretch of
// cycles in which it cannot change observes it once, weighted.
func (b *HistogramBatch) ObserveN(v, n uint64) {
	edges := b.h.edges
	i := 0
	for i < len(edges) && v > edges[i] {
		i++
	}
	b.counts[i] += n
	b.sum += v * n
	b.count += n
}

// Flush folds the accumulated observations into the underlying histogram
// and resets the batch. Flushing an empty batch is a no-op, so it is safe
// to flush at every run exit.
func (b *HistogramBatch) Flush() {
	if b.count == 0 {
		return
	}
	for i, n := range b.counts {
		if n != 0 {
			b.h.counts[i].Add(n)
			b.counts[i] = 0
		}
	}
	b.h.sum.Add(b.sum)
	b.h.count.Add(b.count)
	b.sum, b.count = 0, 0
}
