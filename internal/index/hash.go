package index

import (
	"math/bits"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// Hash is a hash sub-index over one attribute, used for equi-join
// probing ("HashMap for equi-join" in the text). With attr < 0 it
// degrades to an append-only store that only serves full scans.
//
// The table is a power-of-two open-addressing table with linear
// probing, kept at most half full, one slot per distinct key hash. A
// slot holds the full 64-bit key hash and the positions in all of the
// key's first and last tuple; next chains one key's tuples in insertion
// order. The slots' 1-byte tags sit in their own array: a tag is a
// fingerprint of the key hash with its low bit set, and 0 marks an
// empty slot. Almost every point probe of a sub-index misses, and a
// miss usually stops at the first tag it reads without touching a slot.
// Membership is decided on the full hash, never on the tag alone; the
// caller's predicate then checks values. Growth doubles the table and
// rehashes the slots only: chains are positions in all and next, so
// they never move. There is no delete.
type Hash struct {
	attr     int
	all      []*tuple.Tuple // insertion order, for ProbeAll and Export
	next     []int32        // next[p]: position of the next tuple with all[p]'s key, or -1
	tags     []uint8        // 0 = empty slot
	slots    []hashSlot
	shift    uint // 64 - log2(len(tags)): a mixed hash's top bits pick its home slot
	keys     int  // occupied slots
	memBytes int64
}

// hashSlot is one key of a Hash: its full hash and the ends of its
// chain through Hash.next.
type hashSlot struct {
	hash       uint64
	head, tail int32
}

// Per-entry bookkeeping overhead estimates, derived from each layout's
// Go map, slice and array costs so that MemBytes behaves like a real
// heap profile.
const (
	hashEntryOverhead = 48 // Flat: map bucket share + slice element
	listEntryOverhead = 8  // slice element
	// hashLinkOverhead is a Hash tuple's next link.
	hashLinkOverhead = 4
	// hashKeyOverhead is a Hash key's share of the table. A slot and
	// its tag take 17 B; between doublings a table holds a quarter to a
	// half as many keys as slots, 4·ln 2 ≈ 2.77 slots a key on average.
	hashKeyOverhead = 47
)

// minHashSlots is a table's size at its first insert.
const minHashSlots = 16

// NewHash builds a hash sub-index keyed on the given attribute position.
// The table is allocated at the first insert.
func NewHash(attr int) *Hash {
	return &Hash{attr: attr}
}

// mixHash spreads a key hash for slot selection: the top bits of the
// product depend on every bit of k.
func mixHash(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }

// hashTag is the tag of a key whose mixed hash is m: 7 bits of
// fingerprint with the low bit set.
func hashTag(m uint64) uint8 { return uint8(m>>24) | 1 }

// find returns the slot holding key hash k, or the empty slot where k
// belongs. On a table without slots it returns 0, false; the caller
// grows it before inserting.
func (h *Hash) find(k uint64) (int, bool) {
	if len(h.tags) == 0 {
		return 0, false
	}
	m := mixHash(k)
	want, mask := hashTag(m), len(h.tags)-1
	for i := int(m >> h.shift); ; i = (i + 1) & mask {
		tag := h.tags[i]
		if tag == 0 {
			return i, false
		}
		if tag == want && h.slots[i].hash == k {
			return i, true
		}
	}
}

// grow doubles the table (or allocates the first one) and rehashes the
// slots into it.
func (h *Hash) grow() {
	tags, slots := h.tags, h.slots
	n := max(minHashSlots, 2*len(tags))
	h.tags, h.slots = make([]uint8, n), make([]hashSlot, n)
	h.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i, tag := range tags {
		if tag != 0 {
			j, _ := h.find(slots[i].hash)
			h.tags[j], h.slots[j] = tag, slots[i]
		}
	}
}

// Insert implements SubIndex.
func (h *Hash) Insert(t *tuple.Tuple) {
	p := int32(len(h.all))
	h.all = append(h.all, t)
	h.memBytes += int64(t.MemSize()) + listEntryOverhead
	if h.attr < 0 {
		return
	}
	h.next = append(h.next, -1)
	h.memBytes += hashLinkOverhead
	k := t.Value(h.attr).Hash()
	i, ok := h.find(k)
	if ok {
		s := &h.slots[i]
		h.next[s.tail] = p
		s.tail = p
		return
	}
	if 2*(h.keys+1) > len(h.tags) {
		h.grow()
		i, _ = h.find(k)
	}
	h.tags[i] = hashTag(mixHash(k))
	h.slots[i] = hashSlot{hash: k, head: p, tail: p}
	h.keys++
	h.memBytes += hashKeyOverhead
}

// Probe implements SubIndex. Point probes walk their key's chain;
// range probes (which should not normally reach a hash sub-index) and
// full scans walk everything.
func (h *Hash) Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	return h.probe(&plan, emit)
}

// probe is Probe without copying the plan.
func (h *Hash) probe(plan *predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	if plan.Kind != predicate.ProbePoint || h.attr < 0 {
		for _, t := range h.all {
			if !emit(t) {
				return false
			}
		}
		return true
	}
	i, ok := h.find(plan.HashOfKey())
	if !ok {
		return true
	}
	for p := h.slots[i].head; p >= 0; p = h.next[p] {
		if !emit(h.all[p]) {
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
