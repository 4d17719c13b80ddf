package index

import (
	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// BTree is a B+-tree ordered sub-index over one attribute, serving the
// range probes of band and inequality joins (the text's
// "BinarySearchTree for non-equi-join predicates") with leaf-chain
// scans. Like every sub-index in the chained design it is insert-only:
// deletion happens by dropping whole sub-indexes, so no
// rebalancing-on-delete is needed and leaves stay densely packed.
type BTree struct {
	attr     int
	root     bNode
	length   int
	memBytes int64
}

// btreeOrder is the fan-out: each internal node holds up to btreeOrder
// children, each leaf up to btreeOrder keys. 32 keeps nodes around two
// cache lines of Values.
const btreeOrder = 32

type bNode interface {
	// insert adds (key, t); a split returns the new right sibling and
	// its separator key.
	insert(key tuple.Value, t *tuple.Tuple) (sep tuple.Value, right bNode)
}

type bLeaf struct {
	keys   []tuple.Value
	vals   [][]*tuple.Tuple
	next   *bLeaf // leaf chain for range scans
	parent *BTree
}

type bInner struct {
	keys     []tuple.Value // len(children)-1 separators
	children []bNode
}

// NewBTree builds a B+-tree sub-index keyed on the given attribute.
func NewBTree(attr int) *BTree {
	bt := &BTree{attr: attr}
	bt.root = &bLeaf{parent: bt}
	return bt
}

// Insert implements SubIndex.
func (b *BTree) Insert(t *tuple.Tuple) {
	key := t.Value(b.attr)
	sep, right := b.root.insert(key, t)
	if right != nil {
		b.root = &bInner{keys: []tuple.Value{sep}, children: []bNode{b.root, right}}
		b.memBytes += 64
	}
	b.length++
	b.memBytes += int64(t.MemSize()) + listEntryOverhead + 16
}

// findLeaf descends to the leaf that does or would contain key.
func (b *BTree) findLeaf(key tuple.Value) *bLeaf {
	n := b.root
	for {
		switch v := n.(type) {
		case *bLeaf:
			return v
		case *bInner:
			i := 0
			for i < len(v.keys) && key.Compare(v.keys[i]) >= 0 {
				i++
			}
			n = v.children[i]
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

// Probe implements SubIndex: leaf-chain range scan.
func (b *BTree) Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) {
	var leaf *bLeaf
	var start int
	switch plan.Kind {
	case predicate.ProbePoint:
		plan = predicate.Plan{
			Kind: predicate.ProbeRange,
			Lo:   plan.Key, Hi: plan.Key, LoInc: true, HiInc: true,
		}
		fallthrough
	case predicate.ProbeRange:
		if plan.Lo.IsValid() {
			leaf = b.findLeaf(plan.Lo)
			start = leaf.lowerBound(plan.Lo, plan.LoInc)
		} else {
			leaf = b.firstLeaf()
		}
	default:
		leaf = b.firstLeaf()
	}
	for leaf != nil {
		for i := start; i < len(leaf.keys); i++ {
			if plan.Kind == predicate.ProbeRange && plan.Hi.IsValid() {
				c := leaf.keys[i].Compare(plan.Hi)
				if c > 0 || (c == 0 && !plan.HiInc) {
					return
				}
			}
			for _, t := range leaf.vals[i] {
				if !emit(t) {
					return
				}
			}
		}
		leaf = leaf.next
		start = 0
	}
}

// lowerBound returns the first slot with key >= target (or > when
// exclusive).
func (l *bLeaf) lowerBound(target tuple.Value, inclusive bool) int {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		c := l.keys[mid].Compare(target)
		if c < 0 || (c == 0 && !inclusive) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (l *bLeaf) insert(key tuple.Value, t *tuple.Tuple) (tuple.Value, bNode) {
	i := l.lowerBound(key, true)
	if i < len(l.keys) && l.keys[i].Compare(key) == 0 {
		l.vals[i] = append(l.vals[i], t)
		return tuple.Value{}, nil
	}
	l.keys = append(l.keys, tuple.Value{})
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.vals = append(l.vals, nil)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = []*tuple.Tuple{t}
	if len(l.keys) <= btreeOrder {
		return tuple.Value{}, nil
	}
	// Split: right half moves to a new leaf linked after this one.
	mid := len(l.keys) / 2
	right := &bLeaf{
		keys:   append([]tuple.Value(nil), l.keys[mid:]...),
		vals:   append([][]*tuple.Tuple(nil), l.vals[mid:]...),
		next:   l.next,
		parent: l.parent,
	}
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	l.next = right
	return right.keys[0], right
}

func (n *bInner) insert(key tuple.Value, t *tuple.Tuple) (tuple.Value, bNode) {
	i := 0
	for i < len(n.keys) && key.Compare(n.keys[i]) >= 0 {
		i++
	}
	sep, right := n.children[i].insert(key, t)
	if right == nil {
		return tuple.Value{}, nil
	}
	n.keys = append(n.keys, tuple.Value{})
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.children) <= btreeOrder {
		return tuple.Value{}, nil
	}
	mid := len(n.keys) / 2
	upSep := n.keys[mid]
	rightInner := &bInner{
		keys:     append([]tuple.Value(nil), n.keys[mid+1:]...),
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
