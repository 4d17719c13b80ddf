package index

import (
	"math"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// BTree is a B+-tree ordered sub-index over one attribute, serving the
// range probes of band and inequality joins (the text's
// "BinarySearchTree for non-equi-join predicates") with leaf-chain
// scans. Like every sub-index in the chained design it is insert-only:
// deletion happens by dropping whole sub-indexes, so no
// rebalancing-on-delete is needed and leaves stay densely packed.
//
// Nodes hold keys in compare-ready form (bKey), converted once per
// insert and once per probe bound, so the comparisons of a descent are
// native float or string comparisons rather than Value.Compare calls.
type BTree struct {
	attr     int
	root     bNode
	length   int
	memBytes int64
}

// btreeOrder is the fan-out: each internal node holds up to btreeOrder
// children, each leaf up to btreeOrder keys. A bKey is 32 bytes, so a
// full node's key array is 1 KiB (16 cache lines), of which a binary
// search touches about five.
const btreeOrder = 32

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

type bNode interface {
	// insert adds (key, t); a split returns the new right sibling and
	// its separator key.
	insert(key bKey, t *tuple.Tuple) (sep bKey, right bNode)
}

type bLeaf struct {
	keys []bKey
	vals [][]*tuple.Tuple
	next *bLeaf // leaf chain for range scans
}

type bInner struct {
	keys     []bKey // len(children)-1 separators
	children []bNode
}

// NewBTree builds a B+-tree sub-index keyed on the given attribute.
func NewBTree(attr int) *BTree {
	return &BTree{attr: attr, root: &bLeaf{}}
}

// Insert implements SubIndex.
func (b *BTree) Insert(t *tuple.Tuple) {
	sep, right := b.root.insert(keyOf(t.Value(b.attr)), t)
	if right != nil {
		b.root = &bInner{keys: []bKey{sep}, children: []bNode{b.root, right}}
		b.memBytes += 64
	}
	b.length++
	b.memBytes += int64(t.MemSize()) + listEntryOverhead + 16
}

// findLeaf descends to the leaf that does or would contain key: at each
// inner node, the child after the last separator <= key.
func (b *BTree) findLeaf(key bKey) *bLeaf {
	n := b.root
	for {
		switch v := n.(type) {
		case *bLeaf:
			return v
		case *bInner:
			n = v.children[lowerBound(v.keys, key, false)]
		}
	}
}

// firstLeaf returns the leftmost leaf.
func (b *BTree) firstLeaf() *bLeaf {
	n := b.root
	for {
		switch v := n.(type) {
		case *bLeaf:
			return v
		case *bInner:
			n = v.children[0]
		}
	}
}

// Probe implements SubIndex: leaf-chain range scan. A point probe is the
// range [Key, Key]; an invalid bound is unbounded.
func (b *BTree) Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	return b.probe(&plan, emit)
}

// probe is Probe without copying the plan.
func (b *BTree) probe(plan *predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	lo, hi, loInc, hiInc := plan.Lo, plan.Hi, plan.LoInc, plan.HiInc
	switch plan.Kind {
	case predicate.ProbePoint:
		lo, hi, loInc, hiInc = plan.Key, plan.Key, true, true
	case predicate.ProbeRange: // bounds as given
	default: // a full scan
		lo, hi = tuple.Value{}, tuple.Value{}
	}
	var leaf *bLeaf
	start := 0
	if lo.IsValid() {
		k := keyOf(lo)
		leaf = b.findLeaf(k)
		start = lowerBound(leaf.keys, k, loInc)
	} else {
		leaf = b.firstLeaf()
	}
	bounded, hk := hi.IsValid(), keyOf(hi)
	for ; leaf != nil; leaf, start = leaf.next, 0 {
		for i := start; i < len(leaf.keys); i++ {
			if bounded {
				if c := leaf.keys[i].cmp(hk); c > 0 || (c == 0 && !hiInc) {
					return true
				}
			}
			for _, t := range leaf.vals[i] {
				if !emit(t) {
					return false
				}
			}
		}
	}
	return true
}

func (l *bLeaf) insert(key bKey, t *tuple.Tuple) (bKey, bNode) {
	i := lowerBound(l.keys, key, true)
	if i < len(l.keys) && l.keys[i].cmp(key) == 0 {
		l.vals[i] = append(l.vals[i], t)
		return bKey{}, nil
	}
	l.keys = append(l.keys, bKey{})
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.vals = append(l.vals, nil)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = []*tuple.Tuple{t}
	if len(l.keys) <= btreeOrder {
		return bKey{}, nil
	}
	// Split: right half moves to a new leaf linked after this one.
	mid := len(l.keys) / 2
	right := &bLeaf{
		keys: append([]bKey(nil), l.keys[mid:]...),
		vals: append([][]*tuple.Tuple(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	l.next = right
	return right.keys[0], right
}

func (n *bInner) insert(key bKey, t *tuple.Tuple) (bKey, bNode) {
	i := lowerBound(n.keys, key, false)
	sep, right := n.children[i].insert(key, t)
	if right == nil {
		return bKey{}, nil
	}
	n.keys = append(n.keys, bKey{})
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.children) <= btreeOrder {
		return bKey{}, nil
	}
	mid := len(n.keys) / 2
	upSep := n.keys[mid]
	rightInner := &bInner{
		keys:     append([]bKey(nil), n.keys[mid+1:]...),
		children: append([]bNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return upSep, rightInner
}

// Export implements SubIndex: key-order walk along the leaf chain.
func (b *BTree) Export(emit func(*tuple.Tuple) bool) {
	for leaf := b.firstLeaf(); leaf != nil; leaf = leaf.next {
		for _, vals := range leaf.vals {
			for _, t := range vals {
				if !emit(t) {
					return
				}
			}
		}
	}
}

// Len implements SubIndex.
func (b *BTree) Len() int { return b.length }

// MemBytes implements SubIndex.
func (b *BTree) MemBytes() int64 { return b.memBytes }
