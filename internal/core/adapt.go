package core

// Adaptive routing: the engine side of the detect→decide→move loop.
// The shared HotTracker detects skew and flips per-key placement on the
// routers (detect + decide, internal/router); the Adapter reacts to
// each promotion (internal/router/adapt.go); and migrateKey below is
// the move — it relocates the promoted key's already-stored partition
// from its hash owners to the scattered owners through the same
// migrate.Run coordinator a scale-in uses, ending in a release of the
// exported tuples instead of the donor's retirement.
//
// The donor set is exactly what hash routing targeted before the flip:
// the members of the key's subgroup (hash selects the subgroup,
// round-robin spreads within it — so with subgroups < members the pile
// spans several donors, and with pure hash routing it sits on one).
// Each donor's pile moves to every *other* live member, matching the
// scattered-store geometry the routers use for hot keys.

import (
	"errors"
	"fmt"

	"bistream/internal/index"
	"bistream/internal/joiner"
	"bistream/internal/migrate"
	"bistream/internal/tuple"
)

// maxKeyAttempt bounds the key-move counter so the graft segment ids
// (attempt<<16 | n, see migrate.KeyGrafts) stay shardable:
// Sharded.Graft needs ids below 1<<56.
const maxKeyAttempt = 1 << 40

// migrateKey relocates one relation's stored partition of a newly hot
// key from its hash owners to the rest of the group. It is the
// Adapter's MigrateKey callback; migLock serializes it against
// whole-member migrations so donors never interleave.
func (e *Engine) migrateKey(rel tuple.Relation, keyHash uint64) (int, error) {
	e.migLock.Lock()
	defer e.migLock.Unlock()
	e.mu.Lock()
	if !e.running() {
		e.mu.Unlock()
		return 0, errors.New("core: engine not running")
	}
	members := e.memberIDsLocked(rel)
	layout, err := e.layoutGroupLocked(rel)
	e.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if len(members) < 2 {
		// Scattering across a single member is hash placement; the flip
		// alone is the whole adaptation.
		return 0, nil
	}

	// The placement flipped when the tracker promoted the key, strictly
	// before the Adapter invoked us; today's cursor is therefore at or
	// above the flip point, so a donor frontier past it proves every
	// store copy hash-routed under the cold regime has landed.
	barrier := e.stampCursor()

	// Hash owners of the key under the current layout: the members of its
	// subgroup, which are the join targets of a group holding that layout
	// alone.
	donors, err := layout.JoinTargets(keyHash, true, 0)
	if err != nil {
		return 0, err
	}

	moved := 0
	for _, donorID := range donors {
		donorID := donorID
		// The pile spreads across every other live member: a member must
		// never graft its own export, or the release would delete the
		// grafted copy too.
		recipients := make([]int32, 0, len(members)-1)
		for _, m := range members {
			if m != donorID {
				recipients = append(recipients, m)
			}
		}
		e.mu.Lock()
		e.migAttempt++
		attempt := e.migAttempt
		e.mu.Unlock()
		if attempt >= maxKeyAttempt {
			return moved, fmt.Errorf("core: key move attempt %d out of range", attempt)
		}
		donor := func() *joiner.Service { return e.activeSvc(rel, donorID) }
		// The donor keeps its copies until the release: broadcast probes in
		// flight may still be answerable only there. Until then a probe can
		// match both a copy and its graft; the sink's result dedup absorbs
		// those pairs. Tuples of the key scattered to the donor after the
		// flip are not in seqs and survive the release.
		var seqs []uint64
		n, err := migrate.Run(migrate.Move{
			Rel:     rel,
			Origin:  donorID,
			Timeout: e.cfg.MigrationTimeout,
			Donor: func() migrate.Peer {
				// Re-resolve by id every call: a cold-crashed donor's
				// replacement carries the same id, so the move rides
				// through the crash against the recovered incarnation.
				if svc := donor(); svc != nil {
					return svc
				}
				return nil
			},
			Export: func(p migrate.Peer) (map[int32][]index.Segment, error) {
				tuples, err := p.ExportKeyIfDrained(keyHash, barrier)
				if err != nil {
					return nil, err
				}
				seqs = make([]uint64, len(tuples))
				for i, t := range tuples {
					seqs[i] = t.Seq
				}
				return migrate.KeyGrafts(tuples, donorID, attempt, recipients), nil
			},
			Import: func(member int32, segs []index.Segment) error {
				return e.importForeign(rel, member, segs)
			},
			Cursor: e.stampCursor,
			Release: func() error {
				svc := donor()
				if svc == nil {
					return fmt.Errorf("core: key donor %s-%d gone at release", rel, donorID)
				}
				svc.DropKeySeqs(keyHash, seqs)
				// Make the removal durable so a later cold crash does not
				// resurrect the pile. Best-effort: a failure here leaves
				// duplicate storage at worst, which the sink dedup absorbs.
				_ = svc.CheckpointNow()
				return nil
			},
		})
		if err != nil {
			return moved, fmt.Errorf("core: key migration %s-%d (key %x): %w", rel, donorID, keyHash, err)
		}
		moved += n
	}
	return moved, nil
}

// PinHotKey forces a key's routing placement, overriding the tracker's
// frequency estimate: hot pins scattered-store/broadcast-probe, cold
// pins plain hash routing. Pinning hot also asks the adaptation
// controller (when enabled) to migrate the key's stored pile, exactly
// as an organic promotion would.
func (e *Engine) PinHotKey(keyHash uint64, hot bool) error {
	e.mu.Lock()
	tracker, adapter := e.hot, e.adapter
	e.mu.Unlock()
	if tracker == nil {
		return errors.New("core: ContRand routing not enabled")
	}
	tracker.Pin(keyHash, hot)
	if hot && adapter != nil {
		adapter.Request(keyHash)
	}
	return nil
}

// UnpinHotKey removes a manual pin, returning the key to tracker
// control. A previously pinned-hot key drains like a demotion: probes
// keep broadcasting for a window (+ slack) so tuples scattered under
// the pin stay reachable until they expire.
func (e *Engine) UnpinHotKey(keyHash uint64) error {
	e.mu.Lock()
	tracker := e.hot
	e.mu.Unlock()
	if tracker == nil {
		return errors.New("core: ContRand routing not enabled")
	}
	tracker.Unpin(keyHash, e.cfg.Clock.Now().UnixMilli())
	return nil
}

// HotKeys reports the key hashes the tracker currently routes as hot
// (nil when ContRand is disabled). Diagnostics and tests.
func (e *Engine) HotKeys() []uint64 {
	if e.hot == nil {
		return nil
	}
	return e.hot.HotKeys()
}
