package core

// Joiner membership: one record per member in e.members and one
// transitionLocked that changes its state. A restart swaps a record's
// service, never its state. docs/ARCHITECTURE.md ("The life of a joiner
// member") draws the state machine and the calls that drive it.

import (
	"fmt"
	"slices"
	"time"

	"bistream/internal/joiner"
	"bistream/internal/tuple"
)

// memberState is a joiner member's place in its life cycle.
type memberState uint8

const (
	memberActive  memberState = iota // in its group's layout
	memberDonor                      // migrating: out of the layout, before Cut
	memberCut                        // out of every router's fan-out; cannot be reinstated
	memberParked                     // migrated, but the cut-over wait timed out
	memberSealed                     // windowed scale-in: draining until its deadline
	memberRetired                    // record gone from the table
)

// String names the state, as transitionLocked's errors do.
func (s memberState) String() string {
	return [...]string{"active", "donor", "cut", "parked", "sealed", "retired"}[s]
}

// legalMoves[from] has bit 1<<to set for every legal from → to move.
var legalMoves = [memberRetired + 1]uint8{
	memberActive: 1<<memberSealed | 1<<memberDonor,
	memberDonor:  1<<memberActive | 1<<memberCut,
	memberCut:    1<<memberParked | 1<<memberRetired,
	memberParked: 1 << memberRetired,
	memberSealed: 1 << memberRetired,
}

// member is one joiner member's record. addJoinerLocked appends it and
// retirement removes it; it never moves in between, so a relation's
// records stay in id order.
type member struct {
	rel      tuple.Relation
	id       int32
	svc      *joiner.Service // current incarnation; a cold restart swaps it
	state    memberState
	barrier  uint64    // a donor's cut-over cursor
	deadline time.Time // a sealed member's retirement time
}

// migrating reports whether m is a scale-in donor, from layout removal
// until retirement.
func (m *member) migrating() bool {
	return m.state == memberDonor || m.state == memberCut || m.state == memberParked
}

func isSealed(m *member) bool { return m.state == memberSealed }

// transitionLocked moves m to state to, or rejects a move the life
// cycle does not allow and leaves m as it was. Retiring drops the record
// from the table; the caller retires the service itself outside e.mu.
func (e *Engine) transitionLocked(m *member, to memberState) error {
	if legalMoves[m.state]&(1<<to) == 0 {
		return fmt.Errorf("core: joiner %s-%d cannot move from %s to %s", m.rel, m.id, m.state, to)
	}
	m.state = to
	if to == memberRetired {
		e.members = slices.DeleteFunc(e.members, func(x *member) bool { return x == m })
	}
	return nil
}

// memberOfLocked finds the record whose current incarnation is svc; nil
// once the member is retired or svc was replaced.
func (e *Engine) memberOfLocked(svc *joiner.Service) *member {
	for _, m := range e.members {
		if m.svc == svc {
			return m
		}
	}
	return nil
}

// filterLocked lists the records that match, in table order.
func (e *Engine) filterLocked(match func(*member) bool) []*member {
	var out []*member
	for _, m := range e.members {
		if match(m) {
			out = append(out, m)
		}
	}
	return out
}

// activeLocked lists rel's active records in id order: the layout.
func (e *Engine) activeLocked(rel tuple.Relation) []*member {
	return e.filterLocked(func(m *member) bool { return m.rel == rel && m.state == memberActive })
}

// services lists the current incarnations of ms.
func services(ms []*member) []*joiner.Service {
	out := make([]*joiner.Service, len(ms))
	for i, m := range ms {
		out[i] = m.svc
	}
	return out
}

// activeSvc finds rel's member id by (rel, id) and returns its current
// incarnation while it is in the layout, nil otherwise.
func (e *Engine) activeSvc(rel tuple.Relation, id int32) *joiner.Service {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.activeLocked(rel) {
		if m.id == id {
			return m.svc
		}
	}
	return nil
}
