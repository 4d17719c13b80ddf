package core

import (
	"strings"
	"testing"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// TestMemberTransitionTable drives every (from, to) pair of member
// states through transitionLocked. A legal move updates the record; an
// illegal one returns an error naming both states and leaves the
// record, the table and the retired residue as they were. Retiring
// folds the member's counters into the residue exactly once.
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
	// The member's counters live in the registry, shared by all its
	// incarnations.
	e.reg.Counter("joiner.R.0.received").Add(7)
	e.reg.Counter("joiner.R.0.results").Add(3)

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
	type residue struct{ received, results int64 }
	moves := 0
	for from := memberActive; from <= memberRetired; from++ {
		for to := memberActive; to <= memberRetired; to++ {
			m := &member{rel: tuple.R, id: 0, svc: svc, state: from}
			e.members = []*member{m}
			e.retiredReceived, e.retiredResults = 0, 0
			err := e.transitionLocked(m, to)
			got := residue{e.retiredReceived, e.retiredResults}
			if !legal[[2]memberState{from, to}] {
				if err == nil {
					t.Errorf("%s → %s accepted, want an error", from, to)
				} else if msg := err.Error(); !strings.Contains(msg, "from "+from.String()) || !strings.Contains(msg, "to "+to.String()) {
					t.Errorf("%s → %s: error %q does not name both states", from, to, msg)
				}
				if m.state != from || len(e.members) != 1 || got != (residue{}) {
					t.Errorf("%s → %s rejected but changed the record: state %s, %d records, residue %+v",
						from, to, m.state, len(e.members), got)
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
			want, records := residue{}, 1
			if to == memberRetired {
				want, records = residue{7, 3}, 0
				if e.transitionLocked(m, memberRetired) == nil {
					t.Errorf("%s → retired → retired accepted", from)
				}
				got = residue{e.retiredReceived, e.retiredResults}
			}
			if got != want || len(e.members) != records {
				t.Errorf("%s → %s: residue %+v with %d records, want %+v with %d",
					from, to, got, len(e.members), want, records)
			}
		}
	}
	if moves != len(legal) {
		t.Errorf("%d legal moves exercised, want %d", moves, len(legal))
	}
}
