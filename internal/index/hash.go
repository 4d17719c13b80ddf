package index

import (
	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// Hash is a hash sub-index over one attribute, used for equi-join
// probing ("HashMap for equi-join" in the text). With attr < 0 it
// degrades to an append-only store that only serves full scans.
type Hash struct {
	attr     int
	buckets  map[uint64][]*tuple.Tuple
	all      []*tuple.Tuple // insertion order, for ProbeAll
	memBytes int64
}

// Per-entry bookkeeping overhead estimates, tuned to resemble Go map and
// slice costs so that MemBytes behaves like a real heap profile.
const (
	hashEntryOverhead = 48 // map bucket share + slice element
	listEntryOverhead = 8  // slice element
)

// NewHash builds a hash sub-index keyed on the given attribute position.
func NewHash(attr int) *Hash {
	return &Hash{attr: attr, buckets: make(map[uint64][]*tuple.Tuple)}
}

// Insert implements SubIndex.
func (h *Hash) Insert(t *tuple.Tuple) {
	h.all = append(h.all, t)
	h.memBytes += int64(t.MemSize()) + listEntryOverhead
	if h.attr >= 0 {
		k := t.Value(h.attr).Hash()
		h.buckets[k] = append(h.buckets[k], t)
		h.memBytes += hashEntryOverhead
	}
}

// Probe implements SubIndex. Point probes use the bucket; range probes
// (which should not normally reach a hash sub-index) and full scans walk
// everything.
func (h *Hash) Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	scan := h.all
	if plan.Kind == predicate.ProbePoint && h.attr >= 0 {
		scan = h.buckets[plan.HashOfKey()]
	}
	for _, t := range scan {
		if !emit(t) {
			return false
		}
	}
	return true
}

// Export implements SubIndex: insertion-order walk of every tuple.
func (h *Hash) Export(emit func(*tuple.Tuple) bool) {
	for _, t := range h.all {
		if !emit(t) {
			return
		}
	}
}

// Len implements SubIndex.
func (h *Hash) Len() int { return len(h.all) }

// MemBytes implements SubIndex.
func (h *Hash) MemBytes() int64 { return h.memBytes }
