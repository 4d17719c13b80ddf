package core

// Live scale-in migration: the engine-side protocol around
// migrate.Run. The overall shape (§3.4 elasticity, extended to
// full-history joins):
//
//  1. Under e.mu the donor is popped from the layout and the shrunk
//     layout is pushed to every router; the routers' stamp cursor
//     captured right afterwards is the drain barrier — stamping and
//     publishing are one atomic step, so no store copy routed to the
//     donor under the old layout can be stamped above it.
//  2. migrate.Run drains the donor past the barrier, snapshots it, and
//     hands its segments in memory to the surviving members chosen by
//     assignFunc (migrate.MemberGrafts) — the store target of a
//     router.Group holding the shrunk layout, so every future (and past)
//     join probe's fan-out covers the member now holding each grafted
//     tuple.
//  3. Cut-over: the donor is marked dead in every router's generation
//     table (old generations keep its positional slot, so subgroup
//     geometry is undisturbed; a router added later copies the mark
//     from a peer), and the donor must pass the
//     post-cut-over cursor with an empty result backlog — proving it
//     answered every probe that was still addressed to it.
//  4. The donor retires: its record's move to retired folds its
//     counters into the engine's retired residue, then its service
//     takes a final checkpoint and its queues are deleted.
//
// The donor's record moves active → donor (step 1) → cut (step 3) →
// retired (step 4). On any failure before cut-over it moves back to
// active, unharmed, at its old place in the table. After cut-over its
// state is already safe on the survivors, so a stalled donor is parked
// and Reap retires it once its frontier passes the barrier with an
// empty result backlog.

import (
	"errors"
	"fmt"
	"time"

	"bistream/internal/index"
	"bistream/internal/joiner"
	"bistream/internal/migrate"
	"bistream/internal/router"
	"bistream/internal/tuple"
)

// maxCursor is the highest stamp cursor over rs. Stamp-before-publish
// makes it a hard line: every tuple those routers published so far is
// stamped at or below it, which is what every migration barrier needs.
func maxCursor(rs []*router.Service) uint64 {
	var c uint64
	for _, r := range rs {
		c = max(c, r.StampCursor())
	}
	return c
}

// stampCursor is maxCursor over the current router tier.
func (e *Engine) stampCursor() uint64 {
	e.mu.Lock()
	rs := append([]*router.Service(nil), e.routers...)
	e.mu.Unlock()
	return maxCursor(rs)
}

// scaleInWithMigration shrinks rel's group to n members, migrating one
// donor at a time. migLock serializes whole migrations so concurrent
// ScaleJoiners calls cannot interleave donors.
func (e *Engine) scaleInWithMigration(rel tuple.Relation, n int) error {
	e.migLock.Lock()
	defer e.migLock.Unlock()
	for {
		done, err := e.migrateOneDonor(rel, n)
		if done || err != nil {
			return err
		}
	}
}

// migrateOneDonor pops and migrates the group's last member; done
// reports that the group already has at most n members.
func (e *Engine) migrateOneDonor(rel tuple.Relation, n int) (bool, error) {
	e.mu.Lock()
	if !e.running() {
		e.mu.Unlock()
		return true, errors.New("core: engine not running")
	}
	active := e.activeLocked(rel)
	if len(active) <= n {
		e.mu.Unlock()
		return true, nil
	}
	// Every move of d below is legal by construction: only this
	// migration moves a record out of donor or cut.
	d := active[len(active)-1]
	_ = e.transitionLocked(d, memberDonor)
	shrunk, err := e.layoutGroupLocked(rel)
	if err == nil {
		err = e.pushLayoutsLocked(e.cfg.Clock.Now().UnixMilli())
	}
	if err != nil {
		_ = e.transitionLocked(d, memberActive)
		e.mu.Unlock()
		return false, err
	}
	routers := append([]*router.Service(nil), e.routers...)
	e.mu.Unlock()

	// Drain barrier: all routers already route stores by the shrunk
	// layout, so nothing stamped above this cursor targets the donor's
	// store stream.
	barrier := maxCursor(routers)
	assign := e.assignFunc(shrunk)

	moved, err := migrate.Run(migrate.Move{
		Rel:     rel,
		Origin:  d.id,
		Timeout: e.cfg.MigrationTimeout,
		Donor: func() migrate.Peer {
			// Re-resolve every call so a cold-replaced donor is observed
			// through its recovered incarnation.
			e.mu.Lock()
			defer e.mu.Unlock()
			return d.svc
		},
		Export: func(p migrate.Peer) (map[int32][]index.Segment, error) {
			snap, err := p.ExportIfDrained(barrier)
			if err != nil {
				return nil, err
			}
			return migrate.MemberGrafts(snap, d.id, assign), nil
		},
		Import: func(member int32, segs []index.Segment) error {
			return e.importForeign(rel, member, segs)
		},
		Cut: func() {
			// Under e.mu, so a router added concurrently copies the mark
			// from a peer (lock order e.mu → coreMu, as in SetLayouts).
			e.mu.Lock()
			defer e.mu.Unlock()
			_ = e.transitionLocked(d, memberCut)
			for _, r := range e.routers {
				r.RetireMember(rel, d.id)
			}
		},
		Cursor: func() uint64 {
			c := e.stampCursor()
			e.mu.Lock()
			d.barrier = c
			e.mu.Unlock()
			return c
		},
	})
	if err != nil {
		e.mu.Lock()
		if d.state == memberCut {
			// The state is already on the survivors and the donor is out
			// of all fan-out; only the cut-over wait failed. Park it —
			// Reap retires it once its frontier passes the barrier.
			_ = e.transitionLocked(d, memberParked)
			e.mu.Unlock()
			return false, fmt.Errorf("core: migration of %s-%d stalled at cut-over (donor parked for reap): %w", rel, d.id, err)
		}
		// Nothing irreversible happened: put the donor back.
		_ = e.transitionLocked(d, memberActive)
		perr := e.pushLayoutsLocked(e.cfg.Clock.Now().UnixMilli())
		e.mu.Unlock()
		return false, errors.Join(err, perr)
	}

	e.mu.Lock()
	cur := d.svc
	_ = e.transitionLocked(d, memberRetired)
	e.mu.Unlock()
	cur.Retire()
	e.migrations.Inc()
	e.migratedTuples.Add(int64(moved))
	return false, nil
}

// layoutGroupLocked builds a private router.Group holding rel's current
// layout alone: the routers' own placement geometry (hash to a
// subgroup, round-robin within it), with round-robin cursors of its own.
func (e *Engine) layoutGroupLocked(rel tuple.Relation) (*router.Group, error) {
	g := router.NewGroup(e.win)
	return g, g.SetLayout(e.memberIDsLocked(rel), e.subgroupsLocked(rel), 0)
}

// assignFunc returns the migration's redistribution function: the store
// target of the shrunk layout's group. Hot keys that ContRand scattered
// re-concentrate onto their hash subgroup, which stays correct because
// hot-key probes broadcast.
func (e *Engine) assignFunc(shrunk *router.Group) func(*tuple.Tuple) int32 {
	part := e.cfg.Predicate.Partitionable()
	return func(t *tuple.Tuple) int32 {
		var hash uint64
		if part {
			hash = t.Value(e.cfg.Predicate.IndexAttr(t.Rel)).Hash()
		}
		m, _ := shrunk.StoreTarget(hash, true, 0) // fails only without a layout
		return m
	}
}

// importForeign grafts sealed donor segments onto one surviving member
// and commits them to its checkpoint, retrying across checkpoint
// failures and cold replacements. The graft is idempotent per
// (origin, id), so re-running it against a recovered incarnation that
// already recovered the segments is a no-op.
func (e *Engine) importForeign(rel tuple.Relation, member int32, segs []index.Segment) error {
	var lastErr error
	for try := 0; try < 60; try++ {
		if try > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		svc := e.activeSvc(rel, member)
		if svc == nil {
			lastErr = fmt.Errorf("core: migration recipient %s-%d not in layout", rel, member)
			continue
		}
		if err := svc.ImportForeign(segs); err != nil {
			// Structural rejection (codec, identity): retrying cannot help.
			return err
		}
		// If the member was cold-replaced the graft went into a discarded
		// core; check identity before committing, and again after — a
		// replacement recovers from the committed checkpoint, so only a
		// commit observed by the same incarnation proves durability.
		if e.activeSvc(rel, member) != svc {
			lastErr = fmt.Errorf("core: recipient %s-%d replaced mid-import", rel, member)
			continue
		}
		if err := svc.CheckpointNow(); err != nil {
			lastErr = err
			continue
		}
		if e.activeSvc(rel, member) == svc {
			return nil
		}
		lastErr = fmt.Errorf("core: recipient %s-%d replaced during import commit", rel, member)
	}
	return lastErr
}

// ColdCrashDonor simulates losing the machine of a joiner that is
// currently a migration donor (for fault testing): its service stops,
// its in-memory core is discarded, and after down a fresh incarnation
// with the same id recovers from its checkpoint store and re-attaches
// to the same queues. The running migration observes the replacement
// through its Donor re-resolution and simply keeps polling — with
// checkpointing configured the migration still completes with an exact
// result multiset.
func (e *Engine) ColdCrashDonor(rel tuple.Relation, down time.Duration) error {
	e.mu.Lock()
	var svc *joiner.Service
	for _, m := range e.members {
		if m.rel == rel && m.migrating() {
			svc = m.svc
			break
		}
	}
	e.mu.Unlock()
	if svc == nil {
		return fmt.Errorf("core: no migrating %s donor", rel)
	}
	return e.restartJoiner(svc, true, down)
}
