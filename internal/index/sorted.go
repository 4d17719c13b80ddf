package index

import (
	"math"
	"slices"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// Sorted is the ordered sub-index over one attribute, serving the range
// probes of band and inequality joins (the text's "BinarySearchTree for
// non-equi-join predicates"). Its entries sit in key order in a run of
// fixed-capacity blocks: a binary search over the blocks' last keys
// finds a block, a second one finds the slot, and a probe scans on
// from there. Like every sub-index in the chained design it is
// insert-only — expiry drops whole sub-indexes — so nothing is ever
// deleted or rebalanced.
//
// A new entry goes after every equal key, so Probe and Export emit in
// key order with equal keys in insertion order. Keys are held in
// compare-ready form (bKey), converted once per insert and once per
// probe bound (once per chain probe, not per sub-index, when a Chained
// index drives the scan), so a search compares native floats or
// strings rather than calling Value.Compare.
type Sorted struct {
	attr     int
	blocks   []block
	lasts    []bKey // lasts[i] is the last key of blocks[i]
	length   int
	memBytes int64
}

// block is a key-ordered run of at most blockSize entries, its keys and
// tuples in parallel slices.
type block struct {
	keys []bKey
	vals []*tuple.Tuple
}

// blockSize caps a block. Inserting into a full block splits it in
// two, so the memmove an insert pays is bounded by the block, not by
// the sub-index: a block's keys are 16 KiB.
const blockSize = 512

// MemBytes charges, from the layout: an entry is its 32-byte bKey and
// its 8-byte tuple pointer; a block is its two slice headers in blocks
// and its 32-byte bound in lasts.
const (
	sortedEntryOverhead = 40
	blockOverhead       = 80
)

// bKey is a key in compare-ready form. Its order is Value.Compare's by
// construction: ints and floats both compare as float64, exactly the
// conversion Compare makes (so ints past 2^53 tie where Compare ties
// them, and NaN compares equal to every number); strings sort after
// every number; the invalid Value orders as the empty string.
type bKey struct {
	s   string
	n   float64 // the number, or +Inf for a string
	str bool
}

// keyOf converts a Value to its compare-ready key.
func keyOf(v tuple.Value) bKey {
	switch v.Kind() {
	case tuple.KindInt, tuple.KindFloat:
		return bKey{n: v.AsFloat()}
	}
	return bKey{s: v.AsString(), n: math.Inf(1), str: true}
}

// cmp orders two keys as Value.Compare orders the values they came
// from, returning -1, 0 or +1. It inlines, and two keys whose numbers
// differ are ordered by one float comparison: a string's +Inf puts it
// after every number but +Inf and NaN, which the class test settles.
func (a bKey) cmp(b bKey) int {
	switch {
	case a.n < b.n:
		return -1
	case a.n > b.n:
		return 1
	case !a.str && !b.str:
		return 0
	case !a.str:
		return -1
	case !b.str:
		return 1
	case a.s < b.s:
		return -1
	case a.s > b.s:
		return 1
	}
	return 0
}

// lowerBound returns the first slot whose key is >= k (> k when not
// inclusive).
func lowerBound(keys []bKey, k bKey, inclusive bool) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if c := keys[mid].cmp(k); c < 0 || (c == 0 && !inclusive) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NewSorted builds an ordered sub-index keyed on the given attribute.
func NewSorted(attr int) *Sorted {
	return &Sorted{attr: attr}
}

// Insert implements SubIndex. A key no smaller than every stored key
// appends, opening a new block when the last one is full; any other
// key goes into the first block whose last key is greater, after that
// block's equal keys, splitting the block first if it is full.
func (s *Sorted) Insert(t *tuple.Tuple) {
	k := keyOf(t.Value(s.attr))
	s.length++
	s.memBytes += int64(t.MemSize()) + sortedEntryOverhead
	n := len(s.blocks)
	if n == 0 || s.lasts[n-1].cmp(k) <= 0 {
		if n == 0 || len(s.blocks[n-1].keys) == blockSize {
			s.blocks = append(s.blocks, block{})
			s.lasts = append(s.lasts, k)
			s.memBytes += blockOverhead
			n++
		}
		b := &s.blocks[n-1]
		b.keys = append(b.keys, k)
		b.vals = append(b.vals, t)
		s.lasts[n-1] = k
		return
	}
	bi := lowerBound(s.lasts, k, false)
	if len(s.blocks[bi].keys) == blockSize {
		s.split(bi)
		if s.lasts[bi].cmp(k) <= 0 {
			bi++
		}
	}
	// The block's last key is greater than k, so the slot is inside the
	// block and its bound stays.
	b := &s.blocks[bi]
	i := lowerBound(b.keys, k, false)
	b.keys = slices.Insert(b.keys, i, k)
	b.vals = slices.Insert(b.vals, i, t)
}

// split moves the upper half of full block bi into a new block after it.
func (s *Sorted) split(bi int) {
	b := &s.blocks[bi]
	mid := len(b.keys) / 2
	right := block{
		keys: append(make([]bKey, 0, blockSize), b.keys[mid:]...),
		vals: append(make([]*tuple.Tuple, 0, blockSize), b.vals[mid:]...),
	}
	b.keys, b.vals = b.keys[:mid], b.vals[:mid]
	s.lasts = slices.Insert(s.lasts, bi, b.keys[mid-1])
	s.blocks = slices.Insert(s.blocks, bi+1, right)
	s.memBytes += blockOverhead
}

// Probe implements SubIndex: one search for the low bound, then a scan
// in key order up to the high bound. A point probe is the range
// [Key, Key]; an invalid bound is unbounded.
func (s *Sorted) Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	r := rangeOf(&plan)
	return s.scan(&r, emit)
}

// keyRange is a plan's bounds in compare-ready form. A chain converts
// them once per probe and hands the same range to each of its ordered
// sub-indexes.
type keyRange struct {
	lo, hi       bKey
	hasLo, hasHi bool
	loInc, hiInc bool
}

// rangeOf converts a plan to the key range an ordered sub-index scans.
func rangeOf(plan *predicate.Plan) keyRange {
	lo, hi, loInc, hiInc := plan.Lo, plan.Hi, plan.LoInc, plan.HiInc
	switch plan.Kind {
	case predicate.ProbePoint:
		lo, hi, loInc, hiInc = plan.Key, plan.Key, true, true
	case predicate.ProbeRange: // bounds as given
	default: // a full scan
		return keyRange{}
	}
	r := keyRange{hasLo: lo.IsValid(), hasHi: hi.IsValid(), loInc: loInc, hiInc: hiInc}
	if r.hasLo {
		r.lo = keyOf(lo)
	}
	if r.hasHi {
		r.hi = keyOf(hi)
	}
	return r
}

// scan emits the entries inside r in key order.
func (s *Sorted) scan(r *keyRange, emit func(*tuple.Tuple) bool) bool {
	bi, i := 0, 0
	if r.hasLo {
		if bi = lowerBound(s.lasts, r.lo, r.loInc); bi == len(s.blocks) {
			return true
		}
		i = lowerBound(s.blocks[bi].keys, r.lo, r.loInc)
	}
	for ; bi < len(s.blocks); bi, i = bi+1, 0 {
		b := &s.blocks[bi]
		for ; i < len(b.keys); i++ {
			if r.hasHi {
				if c := b.keys[i].cmp(r.hi); c > 0 || (c == 0 && !r.hiInc) {
					return true
				}
			}
			if !emit(b.vals[i]) {
				return false
			}
		}
	}
	return true
}

// Export implements SubIndex: a walk in key order.
func (s *Sorted) Export(emit func(*tuple.Tuple) bool) {
	for _, b := range s.blocks {
		for _, t := range b.vals {
			if !emit(t) {
				return
			}
		}
	}
}

// Len implements SubIndex.
func (s *Sorted) Len() int { return s.length }

// MemBytes implements SubIndex.
func (s *Sorted) MemBytes() int64 { return s.memBytes }
