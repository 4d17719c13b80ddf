// Package migrate implements live joiner state moves. Two callers share
// one coordinator: the scale-in path of §3.4's elasticity story, which
// empties a departing member so even a full-history join can shrink
// with zero lost or duplicated results, and the adaptive router's
// hot-key moves, which spread one key's pile off its hash owner while
// the owner stays a member.
//
// Run drives one Move through the phases both share:
//
//  1. Drain: the engine has already changed placement (pushed the
//     shrunk layout, or flipped the key to scattered) and captured the
//     routers' stamp cursor as the drain barrier. Run polls Export until
//     the donor's release frontier passes that barrier; the check and
//     the export are one critical section on the donor, so no envelope
//     slips in between. Export returns the state placed per recipient
//     as sealed segments (MemberGrafts, KeyGrafts).
//  2. Graft: Import grafts each recipient's segments and makes them
//     durable. Segments are handed over in memory: donor and recipients
//     are services of one process, and the segments share the donor's
//     immutable tuples, exactly as a checkpoint snapshot does.
//  3. Cut over: the optional Cut runs (a scale-in donor leaves every
//     router's join fan-out), Run reads the routers' Cursor, and waits
//     until the donor's frontier passes it with an empty result
//     backlog — proof that the donor answered, and delivered, every
//     probe that only it could answer.
//  4. Release: the optional Release runs last (a key donor drops the
//     exported tuples and checkpoints the removal).
//
// Until Cut or Release runs nothing is irreversible: the state exists
// on the donor and, at worst, also on recipients, which is duplicate
// storage the sink's result dedup absorbs, never a lost tuple.
package migrate

import (
	"fmt"
	"slices"
	"time"

	"bistream/internal/checkpoint"
	"bistream/internal/index"
	"bistream/internal/tuple"
)

// Peer is the coordinator's view of the donor member. The Move's Donor
// function re-resolves it on every poll, so a donor that is
// cold-replaced mid-move is observed through its new incarnation.
type Peer interface {
	// ExportIfDrained atomically checks that the member's release
	// frontier passed minStamp and snapshots its window; it returns an
	// error while not yet drained.
	ExportIfDrained(minStamp uint64) (*checkpoint.Snapshot, error)
	// ExportKeyIfDrained is ExportIfDrained for the stored tuples of one
	// join key, which stay in the member's window.
	ExportKeyIfDrained(keyHash, minStamp uint64) ([]*tuple.Tuple, error)
	// Frontier reports the member's release frontier.
	Frontier() uint64
	// RetryBacklog reports how many result publishes are still waiting
	// to reach the broker.
	RetryBacklog() int
}

// Move parameterizes one state move.
type Move struct {
	// Rel and Origin identify the donor; grafted segments carry Origin
	// so recipient-side identity (origin, id) stays unique.
	Rel    tuple.Relation
	Origin int32
	// Donor resolves the donor's current incarnation; nil means the
	// donor is gone and the move fails.
	Donor func() Peer
	// Export checks the drain barrier and exports the state to move,
	// placed per recipient, in one atomic step on the donor; an error
	// means "not drained yet" and Run polls again.
	Export func(Peer) (map[int32][]index.Segment, error)
	// Import grafts sealed foreign segments onto one recipient and makes
	// them durable; it must be idempotent.
	Import func(member int32, segs []index.Segment) error
	// Cut, when set, runs after every graft and before the cut-over
	// cursor is read.
	Cut func()
	// Cursor reads the routers' current maximum stamp cursor.
	Cursor func() uint64
	// Release, when set, runs once the donor passed the cut-over
	// barrier; its error fails the move.
	Release func() error
	// Timeout bounds the whole run; DefaultTimeout when zero.
	Timeout time.Duration
}

// DefaultTimeout bounds a Move that sets no Timeout.
const DefaultTimeout = 30 * time.Second

// poll paces the donor polling of both barrier waits.
const poll = 5 * time.Millisecond

// Run executes one move to completion or error and reports how many
// tuples it grafted onto recipients. Run itself never mutates engine
// state except through the Move's callbacks.
func Run(m Move) (int, error) {
	if m.Timeout <= 0 {
		m.Timeout = DefaultTimeout
	}
	deadline := time.Now().Add(m.Timeout)

	var grafts map[int32][]index.Segment
	err := m.await(deadline, "drain", func(p Peer) (err error) {
		grafts, err = m.Export(p)
		return err
	})
	if err != nil {
		return 0, err
	}

	moved := 0
	members := make([]int32, 0, len(grafts))
	for member := range grafts {
		members = append(members, member)
	}
	slices.Sort(members)
	for _, member := range members {
		if err := m.Import(member, grafts[member]); err != nil {
			return 0, fmt.Errorf("migrate: import into member %d: %w", member, err)
		}
		for _, s := range grafts[member] {
			moved += len(s.Tuples)
		}
	}

	// Every join copy stamped at or below the post-graft cursor may have
	// been answerable only by the donor, so its frontier must pass the
	// cursor — and its emitted results must reach the broker — before
	// the donor may lose anything.
	if m.Cut != nil {
		m.Cut()
	}
	cursor := m.Cursor()
	err = m.await(deadline, "cut-over", func(p Peer) error {
		if f := p.Frontier(); f < cursor {
			return fmt.Errorf("frontier %d below cut-over barrier %d", f, cursor)
		}
		if n := p.RetryBacklog(); n > 0 {
			return fmt.Errorf("%d result publishes pending", n)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if m.Release != nil {
		if err := m.Release(); err != nil {
			return 0, fmt.Errorf("migrate: release at donor %s-%d: %w", m.Rel, m.Origin, err)
		}
	}
	return moved, nil
}

// await polls the donor until ready accepts it, failing when the donor
// disappears or the deadline passes.
func (m *Move) await(deadline time.Time, phase string, ready func(Peer) error) error {
	for {
		p := m.Donor()
		if p == nil {
			return fmt.Errorf("migrate: donor %s-%d disappeared during %s", m.Rel, m.Origin, phase)
		}
		err := ready(p)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("migrate: donor %s-%d stuck in %s (frontier %d): %w",
				m.Rel, m.Origin, phase, p.Frontier(), err)
		}
		time.Sleep(poll)
	}
}

// MemberGrafts places a drained donor's whole window on the survivors:
// every non-empty segment (including the live one — the donor is
// drained, so it can never grow again) is renumbered 1..n in order and
// split by assign, which mirrors the shrunk layout's store geometry,
// into at most one sealed graft per recipient. Renumbering keeps ids
// unique even when the donor's own chain carried grafts from an earlier
// move, whose original (origin, id) pairs could collide with segments a
// recipient already holds; a given donor leaves the group only once.
// assign is called in segment and tuple order.
func MemberGrafts(snap *checkpoint.Snapshot, origin int32, assign func(*tuple.Tuple) int32) map[int32][]index.Segment {
	out := make(map[int32][]index.Segment)
	id := uint64(0)
	for _, seg := range snap.Segments {
		if len(seg.Tuples) == 0 {
			continue
		}
		id++
		parts := make(map[int32][]*tuple.Tuple)
		for _, t := range seg.Tuples {
			member := assign(t)
			parts[member] = append(parts[member], t)
		}
		for member, ts := range parts {
			out[member] = append(out[member], sealed(id, origin, ts))
		}
	}
	return out
}

// KeyGrafts places a key donor's exported pile round-robin across the
// recipients (which must not include the donor, or its release would
// delete the grafted copy too), one sealed segment per recipient that
// receives anything. Ids are attempt<<16 | n for the n-th segment, so a
// key move never collides with a member move's renumbered segments or
// with an earlier key move's grafts. recipients must be non-empty.
func KeyGrafts(tuples []*tuple.Tuple, origin int32, attempt uint64, recipients []int32) map[int32][]index.Segment {
	parts := make([][]*tuple.Tuple, len(recipients))
	for i, t := range tuples {
		parts[i%len(parts)] = append(parts[i%len(parts)], t)
	}
	out := make(map[int32][]index.Segment)
	n := uint64(0)
	for i, ts := range parts {
		if len(ts) == 0 {
			continue
		}
		n++
		out[recipients[i]] = []index.Segment{sealed(attempt<<16|n, origin, ts)}
	}
	return out
}

// sealed builds one non-empty graft segment with its timestamp bounds.
func sealed(id uint64, origin int32, ts []*tuple.Tuple) index.Segment {
	s := index.Segment{ID: id, Origin: origin, Sealed: true, Tuples: ts, MinTS: ts[0].TS, MaxTS: ts[0].TS}
	for _, t := range ts[1:] {
		s.MinTS = min(s.MinTS, t.TS)
		s.MaxTS = max(s.MaxTS, t.TS)
	}
	return s
}
