// Package dedup provides a bounded-memory set of recently seen keys,
// the idempotency filter that turns the broker's at-least-once
// redelivery into exactly-once processing: consumers remember the
// identity of every tuple (or result) they have already handled and
// suppress duplicates.
//
// Memory is bounded by generation rotation: keys live in a current and
// a previous map; when the current map reaches capacity it becomes the
// previous one and a fresh map starts. A key is therefore remembered
// for at least cap and at most 2*cap subsequent insertions — plenty for
// redelivery, which the broker performs promptly after a consumer
// crash, while old traffic ages out instead of growing without bound.
package dedup

import "maps"

// Key identifies one unit of work: (relation, seq) for tuples,
// (leftSeq, rightSeq) for join results.
type Key [2]uint64

// Set is the rotating two-generation set. It is not safe for
// concurrent use; callers serialize access (the joiner service mutex,
// the engine's single sink goroutine).
type Set struct {
	cap        int
	cur, prev  map[Key]struct{}
	suppressed int64
}

// DefaultCap is the per-generation capacity used when New is given a
// non-positive capacity: 64k keys × 2 generations ≈ 3 MiB worst case.
const DefaultCap = 1 << 16

// New creates a set that rotates generations every cap insertions.
func New(cap int) *Set {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Set{cap: cap, cur: make(map[Key]struct{})}
}

// Seen reports whether k was added within the retention horizon.
func (s *Set) Seen(k Key) bool {
	if _, ok := s.cur[k]; ok {
		return true
	}
	_, ok := s.prev[k]
	return ok
}

// Add records k, rotating generations when the current one is full.
func (s *Set) Add(k Key) {
	if len(s.cur) >= s.cap {
		s.prev = s.cur
		s.cur = make(map[Key]struct{}, s.cap/4)
	}
	s.cur[k] = struct{}{}
}

// SeenOrAdd records k and reports whether it was already present — the
// one-call form consumers use per delivery.
func (s *Set) SeenOrAdd(k Key) bool {
	if s.Seen(k) {
		s.suppressed++
		return true
	}
	s.Add(k)
	return false
}

// DeleteFunc forgets every retained key for which del returns true.
func (s *Set) DeleteFunc(del func(Key) bool) {
	maps.DeleteFunc(s.cur, func(k Key, _ struct{}) bool { return del(k) })
	maps.DeleteFunc(s.prev, func(k Key, _ struct{}) bool { return del(k) })
}

// Suppressed returns how many SeenOrAdd calls found their key already
// present.
func (s *Set) Suppressed() int64 { return s.suppressed }

// Rotate forces a generation rotation regardless of how full the
// current one is: the current generation becomes the previous one and a
// fresh map starts, discarding what the old previous generation held.
// Callers with a time-like watermark (the joiner's reorder frontier)
// use this to age entries out by elapsed stamp-time instead of by
// insertion count, so the set stays bounded even when ingest is slow
// and the count-cap rotation never fires.
func (s *Set) Rotate() {
	s.prev = s.cur
	s.cur = make(map[Key]struct{}, len(s.prev)/4)
}

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
	st := State{Cap: s.cap, Suppressed: s.suppressed}
	st.Cur = make([]Key, 0, len(s.cur))
	for k := range s.cur {
		st.Cur = append(st.Cur, k)
	}
	st.Prev = make([]Key, 0, len(s.prev))
	for k := range s.prev {
		st.Prev = append(st.Prev, k)
	}
	return st
}

// FromState rebuilds a set from an exported snapshot, preserving the
// generation split so rotation resumes where it left off.
func FromState(st State) *Set {
	s := New(st.Cap)
	s.suppressed = st.Suppressed
	for _, k := range st.Cur {
		s.cur[k] = struct{}{}
	}
	if len(st.Prev) > 0 {
		s.prev = make(map[Key]struct{}, len(st.Prev))
		for _, k := range st.Prev {
			s.prev[k] = struct{}{}
		}
	}
	return s
}

// Len returns the number of retained keys (both generations).
func (s *Set) Len() int { return len(s.cur) + len(s.prev) }
