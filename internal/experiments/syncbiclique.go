// Package experiments contains one runner per table/figure of the
// source text's evaluation (see DESIGN.md's per-experiment index). Each
// runner returns structured results that the CLI renders and the bench
// harness asserts shapes on.
package experiments

import (
	"fmt"
	"time"

	"bistream/internal/joiner"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/router"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// SyncBiclique is a single-threaded join-biclique processor used by the
// model-comparison and routing experiments: one router core fans tuples
// out to joiner cores synchronously (so the ordering protocol is
// unnecessary by construction), which isolates the model's storage and
// communication costs from broker and scheduling noise.
type SyncBiclique struct {
	router  *router.Core
	rGroup  map[int32]*joiner.Core
	sGroup  map[int32]*joiner.Core
	results int64
	copies  int64
	now     time.Time
}

// SyncOption customizes a SyncBiclique.
type SyncOption func(*router.Config)

// WithHotTracker enables frequency-aware (ContRand) routing.
func WithHotTracker(h *router.HotTracker) SyncOption {
	return func(cfg *router.Config) { cfg.Hot = h }
}

// NewSyncBiclique builds a biclique with nR+nS joiners, each group
// split into the given number of subgroups (1 = random routing,
// group size = hash routing).
func NewSyncBiclique(pred predicate.Predicate, win window.Sliding, nR, nS, dR, dS int, opts ...SyncOption) (*SyncBiclique, error) {
	rcfg := router.Config{ID: 0, Pred: pred, Window: win}
	for _, opt := range opts {
		opt(&rcfg)
	}
	rc, err := router.NewCore(rcfg)
	if err != nil {
		return nil, err
	}
	sb := &SyncBiclique{
		router: rc,
		rGroup: make(map[int32]*joiner.Core),
		sGroup: make(map[int32]*joiner.Core),
		now:    time.Unix(0, 0),
	}
	mk := func(rel tuple.Relation, n int) ([]int32, error) {
		ids := make([]int32, n)
		group := sb.rGroup
		if rel == tuple.S {
			group = sb.sGroup
		}
		for i := 0; i < n; i++ {
			id := int32(i)
			jc, err := joiner.NewCore(joiner.Config{
				ID: id, Rel: rel, Pred: pred, Window: win, Unordered: true,
			})
			if err != nil {
				return nil, err
			}
			group[id] = jc
			ids[i] = id
		}
		return ids, nil
	}
	rIDs, err := mk(tuple.R, nR)
	if err != nil {
		return nil, err
	}
	sIDs, err := mk(tuple.S, nS)
	if err != nil {
		return nil, err
	}
	if err := rc.SetLayout(tuple.R, rIDs, dR, 0); err != nil {
		return nil, err
	}
	if err := rc.SetLayout(tuple.S, sIDs, dS, 0); err != nil {
		return nil, err
	}
	return sb, nil
}

// Process routes one tuple and applies every destination synchronously.
func (sb *SyncBiclique) Process(t *tuple.Tuple, emit func(tuple.JoinResult)) error {
	sb.now = time.UnixMilli(t.TS)
	dests, err := sb.router.Route(t, sb.now)
	if err != nil {
		return err
	}
	sb.copies += int64(len(dests))
	wrapped := func(jr tuple.JoinResult) {
		sb.results++
		if emit != nil {
			emit(jr)
		}
	}
	for _, d := range dests {
		member, err := memberOf(d.Key)
		if err != nil {
			return err
		}
		var jc *joiner.Core
		switch {
		case d.Env.Stream == protocol.StreamStore && t.Rel == tuple.R,
			d.Env.Stream == protocol.StreamJoin && t.Rel == tuple.S:
			jc = sb.rGroup[member]
		default:
			jc = sb.sGroup[member]
		}
		if jc == nil {
			return fmt.Errorf("experiments: no joiner for destination %s/%s", d.Exchange, d.Key)
		}
		jc.HandleBatch([]protocol.Envelope{d.Env}, protocol.SourceStore, wrapped)
	}
	return nil
}

func memberOf(key string) (int32, error) {
	var m int32
	if _, err := fmt.Sscanf(key, "m.%d", &m); err != nil {
		return 0, fmt.Errorf("experiments: bad member key %q: %w", key, err)
	}
	return m, nil
}

// Stats aggregates the biclique's cost counters, mirroring
// matrix.Stats for side-by-side comparison.
type SyncStats struct {
	Units        int
	TuplesIn     int64
	Copies       int64 // store + join deliveries (unit-level messages)
	StoredTuples int   // live tuples over all units (no replication)
	MemBytes     int64
	Comparisons  int64
	Results      int64
	Expired      int64
}

// Stats snapshots the processor.
func (sb *SyncBiclique) Stats() SyncStats {
	st := SyncStats{
		Units:   len(sb.rGroup) + len(sb.sGroup),
		Copies:  sb.copies,
		Results: sb.results,
	}
	rs := sb.router.Stats()
	st.TuplesIn = rs.TuplesRouted
	for _, g := range []map[int32]*joiner.Core{sb.rGroup, sb.sGroup} {
		for _, jc := range g {
			js := jc.Stats()
			st.StoredTuples += js.WindowLen
			st.MemBytes += js.MemBytes
			st.Comparisons += js.Comparisons
			st.Expired += js.Expired
		}
	}
	return st
}

// PerJoinerLoad returns each joiner's processed-envelope count
// (stores + probes), for the load-balance experiments.
func (sb *SyncBiclique) PerJoinerLoad() []int64 {
	var out []int64
	for _, g := range []map[int32]*joiner.Core{sb.rGroup, sb.sGroup} {
		for id := int32(0); int(id) < len(g); id++ {
			js := g[id].Stats()
			out = append(out, js.Stored+js.Probed)
		}
	}
	return out
}

// CopiesPerTuple returns average unit-level copies per input tuple.
func (sb *SyncBiclique) CopiesPerTuple() float64 {
	st := sb.Stats()
	if st.TuplesIn == 0 {
		return 0
	}
	return float64(st.Copies) / float64(st.TuplesIn)
}
