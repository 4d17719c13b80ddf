package core

import (
	"bistream/internal/joiner"
	"bistream/internal/router"
	"bistream/internal/tuple"
)

// SnapshotSchemaVersion identifies the layout of Snapshot. It is bumped
// whenever a field changes meaning or is removed, so snapshots
// serialized by one build can be rejected (rather than misread) by
// another.
const SnapshotSchemaVersion = 1

// RouterView is one router instance's identity and counters.
type RouterView struct {
	ID int32 `json:"id"`
	router.Stats
}

// MemberView is one joiner-group member's identity and counters. ID is
// the member's protocol id, which also keys its registry subtree
// ("joiner.<rel>.<id>."); ids are assigned monotonically, so after
// scale-in they are not dense.
type MemberView struct {
	ID int32 `json:"id"`
	joiner.Stats
}

// Snapshot is a structured, versioned view of the whole engine taken at
// one instant: per-instance router and joiner views plus the engine's
// own aggregates. It is the engine's one stats API, assembled from the
// router and joiner services' own Stats.
type Snapshot struct {
	SchemaVersion int `json:"schema_version"`

	TuplesIn int64 `json:"tuples_in"` // tuples accepted by Ingest
	Results  int64 `json:"results"`   // join results seen by the sink

	Routers  []RouterView `json:"routers"`
	RJoiners []MemberView `json:"r_joiners"`
	SJoiners []MemberView `json:"s_joiners"`

	// Sealed counts scaled-in members still draining their window;
	// their counters are excluded from the member views.
	Sealed int `json:"sealed"`

	WindowBytes  int64 `json:"window_bytes"`  // resident window state, all members
	WindowTuples int   `json:"window_tuples"` // stored tuples, all members
}

// Snapshot reaps drained members and captures the engine's state. The
// per-service snapshots are taken sequentially, so cross-member sums
// are consistent only to within in-flight work.
func (e *Engine) Snapshot() Snapshot {
	e.Reap()
	e.mu.Lock()
	routers := append([]*router.Service(nil), e.routers...)
	sealed := len(e.filterLocked(isSealed))
	e.mu.Unlock()
	snap := Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		TuplesIn:      e.tuplesIn.Value(),
		Results:       e.resultsN.Value(),
		Sealed:        sealed,
	}
	for _, r := range routers {
		snap.Routers = append(snap.Routers, RouterView{ID: r.ID(), Stats: r.Stats()})
	}
	snap.RJoiners = e.memberSnapshots(tuple.R)
	snap.SJoiners = e.memberSnapshots(tuple.S)
	for _, views := range [][]MemberView{snap.RJoiners, snap.SJoiners} {
		for _, m := range views {
			snap.WindowBytes += m.MemBytes
			snap.WindowTuples += m.WindowLen
		}
	}
	return snap
}

// memberSnapshots captures one group's per-member views outside e.mu
// (each Stats call takes the member service's own lock).
func (e *Engine) memberSnapshots(rel tuple.Relation) []MemberView {
	e.mu.Lock()
	svcs := services(e.activeLocked(rel))
	e.mu.Unlock()
	out := make([]MemberView, len(svcs))
	for i, svc := range svcs {
		out[i] = MemberView{ID: svc.ID(), Stats: svc.Stats()}
	}
	return out
}
