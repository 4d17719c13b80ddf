// Package index provides the joiners' in-memory storage: a hash
// sub-index for equi-joins, an ordered sub-index (a sorted run of
// fixed-capacity blocks) for non-equi joins, and the chained in-memory
// index of the source text's Figure 5, which partitions the stream by
// discrete time intervals (the archive period P) and discards stale
// data a whole sub-index at a time instead of tuple by tuple.
package index

import (
	"fmt"
	"sync/atomic"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// SubIndex stores tuples of one relation over one archive period and
// serves probe plans from the opposite relation.
type SubIndex interface {
	// Insert adds a tuple.
	Insert(t *tuple.Tuple)
	// Probe calls emit for every stored tuple the plan may match.
	// Candidates are over-approximate; the caller verifies with the
	// predicate. Iteration stops early if emit returns false, and Probe
	// then returns false; it returns true when the scan ran to the end.
	Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) bool
	// Export calls emit for every stored tuple exactly once, in an
	// implementation-defined order (checkpoint export). Iteration
	// stops early if emit returns false.
	Export(emit func(*tuple.Tuple) bool)
	// Len returns the number of stored tuples.
	Len() int
	// MemBytes estimates resident memory including index overhead.
	MemBytes() int64
}

// Factory builds empty sub-indexes. ForPredicate picks the right one.
type Factory func() SubIndex

// ForPredicate selects a hash sub-index for point probes and the
// ordered Sorted sub-index otherwise, mirroring the text's "HashMap for
// equi-join and BinarySearchTree for non-equi-join predicates".
func ForPredicate(pred predicate.Predicate, rel tuple.Relation) Factory {
	attr := pred.IndexAttr(rel)
	if attr < 0 {
		// No index help: a hash sub-index still stores tuples and
		// serves ProbeAll scans.
		return func() SubIndex { return NewHash(-1) }
	}
	if pred.Partitionable() {
		return func() SubIndex { return NewHash(attr) }
	}
	return func() SubIndex { return NewSorted(attr) }
}

// DefaultArchivePeriod returns the archive period P, in milliseconds,
// of a chain under pred when none is configured. A probe visits every
// live sub-index, about W/P of them. A band probe descends into each of
// its Sorted sub-indexes to find a few candidates, so a band chain
// seals every W/4: a quarter of the descents, for up to W/4 of stale
// tuples that expiry has not yet dropped. Every other chain seals every
// W/16: a hash visit is one slot lookup, and a theta probe walks a
// half-open range or the whole window, so it pays for its candidates,
// stale ones included, more than for its visits (E5 measures both). A
// full-history chain (unbounded window) seals every minute, and a
// window too short to divide seals once per span.
func DefaultArchivePeriod(pred predicate.Predicate, win window.Sliding) int64 {
	if win.IsUnbounded() {
		return time.Minute.Milliseconds()
	}
	parts := int64(16)
	if _, band := pred.(predicate.Band); band {
		parts = 4
	}
	if p := win.SpanMillis() / parts; p > 0 {
		return p
	}
	return win.SpanMillis()
}

// IDAlloc hands out segment ids. One allocator can be shared by several
// chains (the shards of a Sharded index), which keeps local segment ids
// unique across all of them — the checkpoint layer keys incremental
// segment writes on (origin, id), so two shards must never seal
// different segments under the same id. The counter is atomic so shard
// workers archiving concurrently never collide.
type IDAlloc struct {
	next atomic.Uint64
}

// NewIDAlloc creates an allocator whose first id is 1.
func NewIDAlloc() *IDAlloc {
	a := &IDAlloc{}
	a.next.Store(1)
	return a
}

// take returns the next unused id.
func (a *IDAlloc) take() uint64 {
	return a.next.Add(1) - 1
}

// Bump raises the allocator so it will never hand out an id below min
// (checkpoint restore: imported segments reserve their ids).
func (a *IDAlloc) Bump(min uint64) {
	for {
		cur := a.next.Load()
		if cur >= min || a.next.CompareAndSwap(cur, min) {
			return
		}
	}
}

// Chained is the chained in-memory index: an active sub-index receiving
// inserts, plus a linked chain of archived sub-indexes ordered by
// construction time. Expiry drops whole archived sub-indexes by
// Theorem 1 once every tuple they can contain is out of the window.
type Chained struct {
	factory Factory
	period  int64 // archive period P, milliseconds
	win     window.Sliding
	alloc   *IDAlloc

	active   *chainedSub
	archived []*chainedSub // oldest first

	totalLen int
	memBytes int64
	dropped  int64 // total tuples discarded by expiry
	archives int64 // total archive operations
}

type chainedSub struct {
	// id is the sub-index's stable segment identity, assigned once at
	// construction and monotonically increasing along the chain. The
	// checkpoint layer keys incremental segment writes on it: a sealed
	// (archived) sub-index never changes, so a checkpoint that already
	// wrote segment id N can skip it forever after.
	id uint64
	// origin is OriginLocal for sub-indexes built here, or the donor
	// member's id for segments grafted in by state migration. Identity
	// for dedup and checkpointing is the (origin, id) pair — two members
	// assign ids independently, so id alone is ambiguous after a graft.
	origin       int32
	sub          SubIndex
	minTS, maxTS int64
	empty        bool
}

func newChainedSub(f Factory, id uint64) *chainedSub {
	return &chainedSub{id: id, origin: OriginLocal, sub: f(), empty: true}
}

func (cs *chainedSub) insert(t *tuple.Tuple) {
	if cs.empty {
		cs.minTS, cs.maxTS = t.TS, t.TS
		cs.empty = false
	} else {
		if t.TS < cs.minTS {
			cs.minTS = t.TS
		}
		if t.TS > cs.maxTS {
			cs.maxTS = t.TS
		}
	}
	cs.sub.Insert(t)
}

// NewChained builds a chained index with the given archive period over
// the given window. The period must be positive and is typically a
// fraction of the window span (W/P sub-indexes are live at a time).
func NewChained(factory Factory, period int64, win window.Sliding) (*Chained, error) {
	return NewChainedAlloc(factory, period, win, NewIDAlloc())
}

// NewChainedAlloc is NewChained with an explicit segment-id allocator,
// shared when the chain is one shard of a Sharded index.
func NewChainedAlloc(factory Factory, period int64, win window.Sliding, alloc *IDAlloc) (*Chained, error) {
	if period <= 0 {
		return nil, fmt.Errorf("index: archive period must be positive, got %d", period)
	}
	return &Chained{
		factory: factory,
		period:  period,
		win:     win,
		alloc:   alloc,
		active:  newChainedSub(factory, alloc.take()),
	}, nil
}

// Insert adds a tuple to the active sub-index, archiving it first if
// accepting the tuple would stretch the sub-index past the archive
// period (the Data Indexing operation of the text).
func (c *Chained) Insert(t *tuple.Tuple) {
	a := c.active
	if !a.empty {
		minTS, maxTS := a.minTS, a.maxTS
		if t.TS < minTS {
			minTS = t.TS
		}
		if t.TS > maxTS {
			maxTS = t.TS
		}
		if maxTS-minTS > c.period {
			c.archiveActive()
			a = c.active
		}
	}
	before := a.sub.MemBytes()
	a.insert(t)
	c.memBytes += a.sub.MemBytes() - before
	c.totalLen++
}

func (c *Chained) archiveActive() {
	c.archived = append(c.archived, c.active)
	c.active = newChainedSub(c.factory, c.alloc.take())
	c.archives++
}

// Expire drops archived sub-indexes whose entire content is stale
// relative to an opposite-relation tuple timestamp (the Data Discarding
// operation): by Theorem 1 a sub-index may go once oppTS - maxTS > W.
// It returns the number of tuples discarded.
func (c *Chained) Expire(oppTS int64) int {
	dropped := 0
	keep := 0
	for keep < len(c.archived) {
		cs := c.archived[keep]
		if !c.win.Expired(cs.maxTS, oppTS) {
			break // chain is ordered by construction time; later ones are fresher
		}
		dropped += cs.sub.Len()
		c.memBytes -= cs.sub.MemBytes()
		c.archived[keep] = nil
		keep++
	}
	if keep > 0 {
		c.archived = append(c.archived[:0], c.archived[keep:]...)
		c.totalLen -= dropped
		c.dropped += int64(dropped)
	}
	return dropped
}

// Probe runs the plan over the active sub-index and every surviving
// archived sub-index (the Join Processing operation). emit receives
// candidates; returning false stops the scan, and Probe returns false.
// The plan is read through the pointer, never copied. A chain of
// Sorted sub-indexes converts the plan's bounds to compare-ready keys
// once, here, and each sub-index scans the same range; probeSub checks
// every sub-index's type, so a factory may change kinds over time.
func (c *Chained) Probe(plan *predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	var r *keyRange
	if _, ok := c.active.sub.(*Sorted); ok {
		kr := rangeOf(plan)
		r = &kr
	}
	for _, cs := range c.archived {
		if !probeSub(cs.sub, plan, r, emit) {
			return false
		}
	}
	return probeSub(c.active.sub, plan, r, emit)
}

// probeSub runs plan over one sub-index. The package's own sub-index
// types are called directly, so the plan does not escape through the
// SubIndex interface; a Sorted one scans r, the plan's bounds already
// converted, when the caller has them.
func probeSub(sub SubIndex, plan *predicate.Plan, r *keyRange, emit func(*tuple.Tuple) bool) bool {
	switch s := sub.(type) {
	case *Hash:
		return s.probe(plan, emit)
	case *Sorted:
		if r == nil {
			kr := rangeOf(plan)
			r = &kr
		}
		return s.scan(r, emit)
	}
	return sub.Probe(*plan, emit)
}

// Len returns the number of live tuples across all sub-indexes.
func (c *Chained) Len() int { return c.totalLen }

// MemBytes estimates the resident bytes of all live sub-indexes; this
// is the joiners' contribution to the memory-based autoscaling metric.
func (c *Chained) MemBytes() int64 { return c.memBytes }

// NumSubIndexes returns the number of live sub-indexes including the
// active one.
func (c *Chained) NumSubIndexes() int { return len(c.archived) + 1 }

// Dropped returns the total number of tuples discarded by expiry.
func (c *Chained) Dropped() int64 { return c.dropped }

// Archives returns how many sub-indexes have been sealed so far.
func (c *Chained) Archives() int64 { return c.archives }

// Segment is the exported view of one chained sub-index, the unit of
// incremental checkpointing. A sealed segment is an archived sub-index
// whose content can never change again — the checkpoint layer writes it
// once and garbage-collects it when expiry drops it from the chain
// (mirroring Expire's whole-segment discards). The live segment is the
// active sub-index, rewritten on every checkpoint round.
type Segment struct {
	ID uint64
	// Origin is OriginLocal for segments this chain built, or the donor
	// member's id for segments received through state migration. The
	// (Origin, ID) pair is the segment's global identity.
	Origin int32
	Sealed bool
	MinTS  int64
	MaxTS  int64
	Tuples []*tuple.Tuple
}

// OriginLocal marks a segment built by the owning chain rather than
// grafted in from a migration donor. Member ids are non-negative, so -1
// can never collide with a real donor.
const OriginLocal int32 = -1

// ExportSegments snapshots the chain as segments in chain order: the
// archived sub-indexes oldest first, then the active one (Sealed ==
// false, always last, possibly empty). Tuple pointers are shared, not
// copied — tuples are immutable once emitted by a source.
func (c *Chained) ExportSegments() []Segment {
	out := make([]Segment, 0, len(c.archived)+1)
	for _, cs := range c.archived {
		out = append(out, cs.export(true))
	}
	out = append(out, c.active.export(false))
	return out
}

func (cs *chainedSub) export(sealed bool) Segment {
	seg := Segment{ID: cs.id, Origin: cs.origin, Sealed: sealed}
	if !cs.empty {
		seg.MinTS, seg.MaxTS = cs.minTS, cs.maxTS
	}
	seg.Tuples = make([]*tuple.Tuple, 0, cs.sub.Len())
	cs.sub.Export(func(t *tuple.Tuple) bool {
		seg.Tuples = append(seg.Tuples, t)
		return true
	})
	return seg
}

// ImportSegments replaces the chain's contents with previously exported
// segments (checkpoint restore). Segments must arrive in chain order,
// every segment sealed except the last, with (origin, id) unique —
// local segment ids additionally stay in chain order, while grafted
// foreign segments sit wherever their timestamps placed them.
// Timestamps, lengths and memory accounting are recomputed by
// re-inserting, so a restored chain archives and expires exactly as the
// original would.
func (c *Chained) ImportSegments(segs []Segment) error {
	if len(segs) == 0 {
		return fmt.Errorf("index: import needs at least the live segment")
	}
	seen := make(map[segIdent]bool, len(segs))
	lastLocal := uint64(0)
	for i, s := range segs {
		if sealed := i < len(segs)-1; s.Sealed != sealed {
			return fmt.Errorf("index: segment %d (id %d) sealed=%v, want %v (live segment must be last)",
				i, s.ID, s.Sealed, sealed)
		}
		ident := segIdent{s.Origin, s.ID}
		if seen[ident] {
			return fmt.Errorf("index: duplicate segment (origin %d, id %d)", s.Origin, s.ID)
		}
		seen[ident] = true
		if s.Origin == OriginLocal {
			if s.ID <= lastLocal {
				return fmt.Errorf("index: local segment ids not increasing (%d after %d)", s.ID, lastLocal)
			}
			lastLocal = s.ID
		}
	}
	if segs[len(segs)-1].Origin != OriginLocal {
		return fmt.Errorf("index: live segment must be local, got origin %d", segs[len(segs)-1].Origin)
	}
	c.archived = nil
	c.totalLen = 0
	c.memBytes = 0
	for _, s := range segs {
		cs := newChainedSub(c.factory, s.ID)
		cs.origin = s.Origin
		for _, t := range s.Tuples {
			before := cs.sub.MemBytes()
			cs.insert(t)
			c.memBytes += cs.sub.MemBytes() - before
			c.totalLen++
		}
		if s.Sealed {
			c.archived = append(c.archived, cs)
		} else {
			c.active = cs
		}
		if s.Origin == OriginLocal {
			c.alloc.Bump(s.ID + 1)
		}
	}
	return nil
}

type segIdent struct {
	origin int32
	id     uint64
}

// reset empties the chain in place behind a freshly allocated live
// segment, keeping the lifetime Dropped and Archives tallies.
func (c *Chained) reset() {
	c.archived = nil
	c.active = newChainedSub(c.factory, c.alloc.take())
	c.totalLen = 0
	c.memBytes = 0
}

// Graft inserts sealed foreign segments (a migration donor's exported
// state) into the archived chain, ordered by maxTS so Expire's
// oldest-first prefix scan keeps working. Segments whose (origin, id)
// is already present are skipped, which makes a retried graft — after a
// recipient crash between import and checkpoint — idempotent. It
// returns the number of tuples actually added.
func (c *Chained) Graft(segs []Segment) (int, error) {
	for _, s := range segs {
		if !s.Sealed {
			return 0, fmt.Errorf("index: graft segment (origin %d, id %d) is not sealed", s.Origin, s.ID)
		}
		if s.Origin == OriginLocal {
			return 0, fmt.Errorf("index: graft segment id %d has no origin", s.ID)
		}
	}
	present := make(map[segIdent]bool, len(c.archived))
	for _, cs := range c.archived {
		present[segIdent{cs.origin, cs.id}] = true
	}
	added := 0
	for _, s := range segs {
		if present[segIdent{s.Origin, s.ID}] {
			continue
		}
		present[segIdent{s.Origin, s.ID}] = true
		cs := newChainedSub(c.factory, s.ID)
		cs.origin = s.Origin
		for _, t := range s.Tuples {
			before := cs.sub.MemBytes()
			cs.insert(t)
			c.memBytes += cs.sub.MemBytes() - before
			c.totalLen++
		}
		added += cs.sub.Len()
		// Insert in maxTS order among the archived sub-indexes: Expire
		// stops at the first unexpired maxTS, so the chain must stay
		// sorted by it for whole-segment discards to reach stale grafts.
		at := len(c.archived)
		for at > 0 && !c.archived[at-1].empty && !cs.empty && c.archived[at-1].maxTS > cs.maxTS {
			at--
		}
		c.archived = append(c.archived, nil)
		copy(c.archived[at+1:], c.archived[at:])
		c.archived[at] = cs
	}
	return added, nil
}
