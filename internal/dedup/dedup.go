// Package dedup provides a bounded-memory set of recently seen keys,
// the idempotency filter that turns the broker's at-least-once
// redelivery into exactly-once processing: consumers remember the
// identity of every tuple (or result) they have already handled and
// suppress duplicates.
//
// Memory is bounded by generation rotation: keys live in a current and
// a previous generation; when the current one holds cap keys it becomes
// the previous one and a fresh generation starts. A key is therefore
// remembered for at least cap and at most 2*cap subsequent insertions —
// plenty for redelivery, which the broker performs promptly after a
// consumer crash, while old traffic ages out instead of growing without
// bound.
//
// Each generation is a power-of-two open-addressing table with linear
// probing, kept at most half full. A slot stores the full 128-bit key
// and a uint32 tag whose high bits are an epoch; the slot is occupied
// iff that epoch equals its table's. Membership is always decided on
// the full key — a hash alone would risk a false positive, which
// silently drops a result. Rotation swaps the two tables and bumps the
// epoch of the one that becomes current, so it neither allocates nor
// clears: every slot the old generation wrote reads as empty at once.
// Memory is cleared only when an epoch wraps. A table starts small and
// doubles as its generation fills, up to nextPow2(2*cap) slots of 20 B
// (16 B key, 4 B tag).
package dedup

import "math/bits"

// Key identifies one unit of work: (relation, seq) for tuples,
// (leftSeq, rightSeq) for join results.
type Key [2]uint64

// Set is the rotating two-generation set. It is not safe for
// concurrent use; callers serialize access (the joiner service mutex,
// the engine's single sink goroutine).
type Set struct {
	cap        int
	cur, prev  table
	suppressed int64
}

// DefaultCap is the per-generation capacity used when New is given a
// non-positive capacity: 64k keys per generation. Worst case a set
// holds 2 tables × nextPow2(2*cap) slots × 20 B = 2 × 128k × 20 B
// = 5 MiB.
const DefaultCap = 1 << 16

// minSlots is a fresh table's size: a set that sees little traffic
// (a joiner member with a quiet key range) stays this small.
const minSlots = 8

// New creates a set that rotates generations every cap insertions.
func New(cap int) *Set {
	if cap <= 0 {
		cap = DefaultCap
	}
	s := &Set{cap: cap}
	s.cur.init(minSlots)
	s.prev.init(0)
	return s
}

// SeenOrAdd records k and reports whether it was already present — the
// one-call form consumers use per delivery.
func (s *Set) SeenOrAdd(k Key) bool {
	h := hash(k)
	i, ok := s.cur.find(k, h)
	if ok || s.prev.n > 0 && s.prev.has(k, h) {
		s.suppressed++
		return true
	}
	if s.cur.n >= s.cap {
		s.Rotate()
		i, _ = s.cur.find(k, h)
	}
	s.cur.insert(i, k, h)
	return false
}

// Rotate forces a generation rotation regardless of how full the
// current one is: the current generation becomes the previous one and a
// fresh one starts, discarding what the old previous generation held.
// Callers with a time-like watermark (the joiner's reorder frontier)
// use this to age entries out by elapsed stamp-time instead of by
// insertion count, so the set stays bounded even when ingest is slow
// and the count-cap rotation never fires.
func (s *Set) Rotate() {
	s.cur, s.prev = s.prev, s.cur
	s.cur.reset()
}

// DeleteFunc forgets every retained key for which del returns true.
// Only grafts call it, so it simply rebuilds both tables.
func (s *Set) DeleteFunc(del func(Key) bool) {
	for _, t := range [2]*table{&s.cur, &s.prev} {
		keep := t.live()
		t.reset()
		for _, k := range keep {
			if !del(k) {
				t.add(k)
			}
		}
	}
}

// Len returns the number of retained keys (both generations).
func (s *Set) Len() int { return s.cur.n + s.prev.n }

// State is a serializable snapshot of the set: the generation watermark
// a checkpoint manifest carries so a cold-restarted consumer still
// suppresses redeliveries of work it handled before the checkpoint.
type State struct {
	Cap        int
	Suppressed int64
	Cur, Prev  []Key
}

// Export snapshots the set's retained keys and generation split. Key
// order within a generation is unspecified.
func (s *Set) Export() State {
	return State{Cap: s.cap, Suppressed: s.suppressed, Cur: s.cur.live(), Prev: s.prev.live()}
}

// FromState rebuilds a set from an exported snapshot, preserving the
// generation split so rotation resumes where it left off. A generation
// holding more than Cap keys is restored whole; the next insertion
// rotates it out.
func FromState(st State) *Set {
	s := New(st.Cap)
	s.suppressed = st.Suppressed
	for _, k := range st.Cur {
		s.cur.add(k)
	}
	for _, k := range st.Prev {
		s.prev.add(k)
	}
	return s
}

// hash mixes both words of k. A table indexes by the top bits and
// takes a tag fingerprint from bits 24–31. Multiplying by odd constants
// keeps sequential seqs — the second word of every key the engine makes
// — spread across the table.
func hash(k Key) uint64 {
	return (k[0]*0x9e3779b97f4a7c15 + k[1]) * 0xbf58476d1ce4e5b9
}

// A slot's uint32 tag is its epoch in the high 24 bits and an 8-bit
// fingerprint of its key's hash in the low 8. The slot is occupied iff
// the epoch equals its table's; the fingerprint lets a probe pass most
// occupied slots, and almost every absent key, without reading a key.
const (
	fpBits   = 8
	maxEpoch = 1<<(32-fpBits) - 1
)

func fingerprint(h uint64) uint32 { return uint32(h>>24) & (1<<fpBits - 1) }

// table is one generation: a linear-probing hash table whose load stays
// at most one half. Slot i is (tags[i], keys[i]); the tags sit in their
// own array, 4 B a slot, so the probes that decide most lookups touch a
// sixth of the memory the keys take. A table never deletes in place, so
// a probe may stop at the first slot that is not occupied.
type table struct {
	tags  []uint32
	keys  []Key
	shift uint   // 64 - log2(len(tags)): a hash's top bits index the table
	epoch uint32 // in 1..maxEpoch; a fresh slot's tag holds epoch 0
	n     int
}

// init gives t fresh zeroed arrays of size slots (a power of two, or
// zero for a table that has not held a key yet).
func (t *table) init(size int) {
	t.tags = make([]uint32, size)
	t.keys = make([]Key, size)
	t.shift = 64
	if size > 0 {
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	t.epoch, t.n = 1, 0
}

// find returns the slot holding k, or the empty slot where k belongs.
// On a table without slots it returns 0, false; the caller grows it
// before inserting.
func (t *table) find(k Key, h uint64) (int, bool) {
	if len(t.tags) == 0 {
		return 0, false
	}
	mask := len(t.tags) - 1
	want := t.epoch<<fpBits | fingerprint(h)
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		tag := t.tags[i]
		if tag>>fpBits != t.epoch {
			return i, false
		}
		if tag == want && t.keys[i] == k {
			return i, true
		}
	}
}

func (t *table) has(k Key, h uint64) bool {
	_, ok := t.find(k, h)
	return ok
}

// insert stores k, whose hash is h, in the empty slot i that find
// returned for it — first growing t, and finding k's slot again, when
// one more key would pass half load.
func (t *table) insert(i int, k Key, h uint64) {
	if 2*(t.n+1) > len(t.tags) {
		t.grow()
		i, _ = t.find(k, h)
	}
	t.tags[i] = t.epoch<<fpBits | fingerprint(h)
	t.keys[i] = k
	t.n++
}

// add inserts k unless present.
func (t *table) add(k Key) {
	h := hash(k)
	if i, ok := t.find(k, h); !ok {
		t.insert(i, k, h)
	}
}

// grow doubles t's arrays and reinserts its keys.
func (t *table) grow() {
	tags, keys, epoch := t.tags, t.keys, t.epoch
	t.init(max(minSlots, 2*len(tags)))
	for i, tag := range tags {
		if tag>>fpBits == epoch {
			t.add(keys[i])
		}
	}
}

// reset empties t in O(1) by moving to the next epoch. Only a wrap
// clears memory: tags from the epochs before it would read as occupied
// again.
func (t *table) reset() {
	t.n = 0
	if t.epoch == maxEpoch {
		clear(t.tags)
		t.epoch = 1
		return
	}
	t.epoch++
}

// live returns t's keys in slot order.
func (t *table) live() []Key {
	out := make([]Key, 0, t.n)
	for i, tag := range t.tags {
		if tag>>fpBits == t.epoch {
			out = append(out, t.keys[i])
		}
	}
	return out
}
