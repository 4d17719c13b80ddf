package core

import (
	"strings"
	"testing"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// TestMemberTransitionTable drives every (from, to) pair of member
// states through transitionLocked. A legal move updates the record, and
// retiring drops it from the table; an illegal one returns an error
// naming both states and leaves the record and the table as they were.
func TestMemberTransitionTable(t *testing.T) {
	e, err := New(Config{Predicate: predicate.NewEqui(0, 0), Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	svc, err := e.buildJoinerLocked(tuple.R, 0) // never started
	if err != nil {
		t.Fatal(err)
	}

	legal := map[[2]memberState]bool{
		{memberActive, memberSealed}:  true,
		{memberActive, memberDonor}:   true,
		{memberDonor, memberActive}:   true,
		{memberDonor, memberCut}:      true,
		{memberCut, memberParked}:     true,
		{memberCut, memberRetired}:    true,
		{memberParked, memberRetired}: true,
		{memberSealed, memberRetired}: true,
	}
	moves := 0
	for from := memberActive; from <= memberRetired; from++ {
		for to := memberActive; to <= memberRetired; to++ {
			m := &member{rel: tuple.R, id: 0, svc: svc, state: from}
			e.members = []*member{m}
			err := e.transitionLocked(m, to)
			if !legal[[2]memberState{from, to}] {
				if err == nil {
					t.Errorf("%s → %s accepted, want an error", from, to)
				} else if msg := err.Error(); !strings.Contains(msg, "from "+from.String()) || !strings.Contains(msg, "to "+to.String()) {
					t.Errorf("%s → %s: error %q does not name both states", from, to, msg)
				}
				if m.state != from || len(e.members) != 1 {
					t.Errorf("%s → %s rejected but changed the record: state %s, %d records",
						from, to, m.state, len(e.members))
				}
				continue
			}
			moves++
			if err != nil {
				t.Errorf("%s → %s: %v", from, to, err)
				continue
			}
			if m.state != to {
				t.Errorf("%s → %s left the record in %s", from, to, m.state)
			}
			records := 1
			if to == memberRetired {
				records = 0
				if e.transitionLocked(m, memberRetired) == nil {
					t.Errorf("%s → retired → retired accepted", from)
				}
			}
			if len(e.members) != records {
				t.Errorf("%s → %s: %d records, want %d", from, to, len(e.members), records)
			}
		}
	}
	if moves != len(legal) {
		t.Errorf("%d legal moves exercised, want %d", moves, len(legal))
	}
}
