package index

import (
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// Flat is the monolithic single-index baseline the text argues against:
// one hash index over the whole window with tuple-at-a-time eviction.
// Discarding stale data must visit individual tuples and repair hash
// buckets, which is the overhead the chained index avoids. It exists for
// the archive-period ablation experiment (E5).
type Flat struct {
	attr    int
	win     window.Sliding
	fifo    []*tuple.Tuple // arrival order; fifo[head:] is live
	head    int
	buckets map[uint64][]*tuple.Tuple
	mem     int64
	dropped int64
}

// NewFlat builds a flat index keyed on attr over the given window.
func NewFlat(attr int, win window.Sliding) *Flat {
	return &Flat{attr: attr, win: win, buckets: make(map[uint64][]*tuple.Tuple)}
}

// Insert adds a tuple.
func (f *Flat) Insert(t *tuple.Tuple) {
	f.fifo = append(f.fifo, t)
	f.mem += int64(t.MemSize()) + listEntryOverhead
	if f.attr >= 0 {
		k := t.Value(f.attr).Hash()
		f.buckets[k] = append(f.buckets[k], t)
		f.mem += hashEntryOverhead
	}
}

// Expire removes stale tuples one at a time (Theorem 1 applied at tuple
// granularity), returning how many were discarded.
func (f *Flat) Expire(oppTS int64) int {
	n := 0
	for f.head < len(f.fifo) {
		t := f.fifo[f.head]
		if !f.win.Expired(t.TS, oppTS) {
			break
		}
		f.fifo[f.head] = nil
		f.head++
		n++
		f.mem -= int64(t.MemSize()) + listEntryOverhead
		if f.attr >= 0 {
			k := t.Value(f.attr).Hash()
			bucket := f.buckets[k]
			for i, bt := range bucket {
				if bt == t {
					bucket[i] = bucket[len(bucket)-1]
					bucket = bucket[:len(bucket)-1]
					break
				}
			}
			if len(bucket) == 0 {
				delete(f.buckets, k)
			} else {
				f.buckets[k] = bucket
			}
			f.mem -= hashEntryOverhead
		}
	}
	// Compact the fifo once the dead prefix dominates.
	if f.head > 1024 && f.head*2 > len(f.fifo) {
		f.fifo = append(f.fifo[:0], f.fifo[f.head:]...)
		f.head = 0
	}
	f.dropped += int64(n)
	return n
}

// Probe serves point probes from the buckets and everything else by
// full scan. It returns false when emit stopped the scan.
func (f *Flat) Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	scan := f.fifo[f.head:]
	if plan.Kind == predicate.ProbePoint && f.attr >= 0 {
		scan = f.buckets[plan.Key.Hash()]
	}
	for _, t := range scan {
		if !emit(t) {
			return false
		}
	}
	return true
}

// Export calls emit for every live tuple in arrival order (checkpoint
// export; Flat is not a SubIndex but round-trips the same way).
func (f *Flat) Export(emit func(*tuple.Tuple) bool) {
	for _, t := range f.fifo[f.head:] {
		if !emit(t) {
			return
		}
	}
}

// Len returns the number of live tuples.
func (f *Flat) Len() int { return len(f.fifo) - f.head }

// MemBytes estimates resident bytes.
func (f *Flat) MemBytes() int64 { return f.mem }

// Dropped returns the total number of expired tuples.
func (f *Flat) Dropped() int64 { return f.dropped }
