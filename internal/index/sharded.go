package index

import (
	"fmt"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// Sharded partitions one relation's window across N chained indexes by
// the hash of the indexed join attribute, so a joiner can run store and
// probe work for different shards on different cores with no locking on
// the steady path: a tuple's store shard and — for partitionable
// predicates — the shard its matches probe are the same function of the
// join key, so all interaction between a stored tuple and the probes
// that can see it happens inside one shard.
//
// Non-partitionable predicates (band, theta, full scans) probe every
// shard; stores still partition, so insert work spreads across cores
// and each probe fans out. When the predicate has no index attribute at
// all, tuples partition by sequence number — any deterministic spread
// works, because every probe scans every shard anyway.
//
// Sharded is not safe for concurrent use as a whole; the joiner core
// partitions a batch so that each shard is touched by exactly one
// worker goroutine, which is what makes the shards' independence
// useful.
type Sharded struct {
	shards []*Chained
	attr   int // store-side partition attribute, -1 for seq partitioning
	alloc  *IDAlloc
}

// MaxShards bounds the shard count: graft synthesizes per-shard segment
// ids as donorID<<shardIDBits | shard, so the shard index must fit in
// shardIDBits bits.
const (
	shardIDBits = 8
	MaxShards   = 1 << shardIDBits
)

// NewSharded builds n chained shards sharing one segment-id allocator.
// attr is the indexed attribute of the stored relation (from
// Predicate.IndexAttr), or -1 to partition by sequence number. n is
// clamped to [1, MaxShards].
func NewSharded(factory Factory, period int64, win window.Sliding, attr, n int) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	alloc := NewIDAlloc()
	shards := make([]*Chained, n)
	for i := range shards {
		c, err := NewChainedAlloc(factory, period, win, alloc)
		if err != nil {
			return nil, err
		}
		shards[i] = c
	}
	return &Sharded{shards: shards, attr: attr, alloc: alloc}, nil
}

// NumShards returns the shard count.
func (x *Sharded) NumShards() int { return len(x.shards) }

// Shard returns shard i, for per-shard workers. The pointer is stable
// for the index's lifetime — ImportSegments restores into the existing
// shards even across a shard-count change — so callers may hold it.
func (x *Sharded) Shard(i int) *Chained { return x.shards[i] }

// ShardFor returns the shard that stores t.
func (x *Sharded) ShardFor(t *tuple.Tuple) int {
	if len(x.shards) == 1 {
		return 0
	}
	if x.attr >= 0 {
		return int(t.Value(x.attr).Hash() % uint64(len(x.shards)))
	}
	return int(t.Seq % uint64(len(x.shards)))
}

// ProbeShard returns the single shard a point probe for key needs to
// visit, or -1 when the plan must fan out to every shard.
func (x *Sharded) ProbeShard(plan *predicate.Plan) int {
	if len(x.shards) == 1 {
		return 0
	}
	if plan.Kind == predicate.ProbePoint && x.attr >= 0 {
		return int(plan.HashOfKey() % uint64(len(x.shards)))
	}
	return -1
}

// Insert stores t in its shard.
func (x *Sharded) Insert(t *tuple.Tuple) {
	x.shards[x.ShardFor(t)].Insert(t)
}

// Probe runs the plan: a point probe visits only the key's shard, any
// other plan fans out across all shards. Iteration stops early when
// emit returns false, and Probe then returns false.
func (x *Sharded) Probe(plan predicate.Plan, emit func(*tuple.Tuple) bool) bool {
	if s := x.ProbeShard(&plan); s >= 0 {
		return x.shards[s].Probe(plan, emit)
	}
	for _, c := range x.shards {
		if !c.Probe(plan, emit) {
			return false
		}
	}
	return true
}

// Expire drops expired sub-indexes in every shard and returns the total
// tuples discarded.
func (x *Sharded) Expire(oppTS int64) int {
	dropped := 0
	for _, c := range x.shards {
		dropped += c.Expire(oppTS)
	}
	return dropped
}

// Len returns the number of live tuples across all shards.
func (x *Sharded) Len() int {
	n := 0
	for _, c := range x.shards {
		n += c.Len()
	}
	return n
}

// MemBytes estimates resident bytes across all shards.
func (x *Sharded) MemBytes() int64 {
	var n int64
	for _, c := range x.shards {
		n += c.MemBytes()
	}
	return n
}

// NumSubIndexes returns the number of live sub-indexes across shards.
func (x *Sharded) NumSubIndexes() int {
	n := 0
	for _, c := range x.shards {
		n += c.NumSubIndexes()
	}
	return n
}

// Dropped returns total tuples discarded by expiry across shards.
func (x *Sharded) Dropped() int64 {
	var n int64
	for _, c := range x.shards {
		n += c.Dropped()
	}
	return n
}

// Archives returns total sealed sub-indexes across shards.
func (x *Sharded) Archives() int64 {
	var n int64
	for _, c := range x.shards {
		n += c.Archives()
	}
	return n
}

// ExportSegments exports every shard's chain, shard-major: shard 0's
// segments in chain order (unsealed live segment last), then shard 1's,
// and so on. The order is deterministic, segment identities are
// globally unique (shared allocator), and exactly one segment per shard
// is unsealed — which is how ImportSegments finds the shard boundaries
// again without a side channel, keeping the checkpoint codec oblivious
// to sharding.
func (x *Sharded) ExportSegments() []Segment {
	var out []Segment
	for _, c := range x.shards {
		out = append(out, c.ExportSegments()...)
	}
	return out
}

// ImportSegments restores a shard-major export. When the export carries
// the same number of shard groups as this index has shards, each group
// restores into its positional shard — hash placement is preserved
// because the partition function only depends on the shard count. When
// the counts differ (restore into a resized index), every tuple is
// re-inserted through the current partition function instead; segment
// identities are not preserved across a resize, so graft idempotency
// does not span shard-count changes.
func (x *Sharded) ImportSegments(segs []Segment) error {
	if len(segs) == 0 {
		return fmt.Errorf("index: import needs at least the live segment")
	}
	seen := make(map[segIdent]bool, len(segs))
	for _, s := range segs {
		ident := segIdent{s.Origin, s.ID}
		if seen[ident] {
			return fmt.Errorf("index: duplicate segment (origin %d, id %d)", s.Origin, s.ID)
		}
		seen[ident] = true
	}
	if segs[len(segs)-1].Sealed {
		return fmt.Errorf("index: last imported segment must be the unsealed live segment")
	}
	// Split into shard groups: each group is a run of sealed segments
	// closed by one unsealed live segment.
	var groups [][]Segment
	start := 0
	for i, s := range segs {
		if !s.Sealed {
			groups = append(groups, segs[start:i+1])
			start = i + 1
		}
	}
	if len(groups) == len(x.shards) {
		for i, g := range groups {
			if err := x.shards[i].ImportSegments(g); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return nil
	}
	// Shard count changed since the export: repartition by re-inserting
	// every tuple. Reserve the imported ids first so freshly assigned
	// segment ids never collide with keys still referenced by an older
	// checkpoint manifest.
	maxLocal := uint64(0)
	for _, s := range segs {
		if s.Origin == OriginLocal && s.ID > maxLocal {
			maxLocal = s.ID
		}
	}
	// The shards are emptied in place, not replaced, so Shard pointers
	// held by workers keep addressing the live window.
	x.alloc.Bump(maxLocal + 1)
	for _, c := range x.shards {
		c.reset()
	}
	for _, s := range segs {
		for _, t := range s.Tuples {
			x.Insert(t)
		}
	}
	return nil
}

// Graft distributes a migration donor's sealed segments across the
// shards by tuple hash. Each donor segment splits into at most one part
// per shard, keyed by the synthetic id donorID<<shardIDBits | shard —
// deterministic, so a retried graft after a crash skips parts already
// present, and collision-free because migrate.MemberGrafts renumbers
// donor segments from 1 (checked here). With one shard the donor
// identity passes through unchanged. It returns the number of tuples
// actually added.
func (x *Sharded) Graft(segs []Segment) (int, error) {
	if len(x.shards) == 1 {
		return x.shards[0].Graft(segs)
	}
	for _, s := range segs {
		if s.ID >= 1<<(64-shardIDBits) {
			return 0, fmt.Errorf("index: graft segment id %d too large to shard", s.ID)
		}
	}
	parts := make([][]Segment, len(x.shards))
	for _, s := range segs {
		split := make([]Segment, len(x.shards))
		for i := range split {
			split[i] = Segment{
				ID:     s.ID<<shardIDBits | uint64(i),
				Origin: s.Origin,
				Sealed: true,
			}
		}
		for _, t := range s.Tuples {
			p := &split[x.ShardFor(t)]
			if len(p.Tuples) == 0 {
				p.MinTS, p.MaxTS = t.TS, t.TS
			} else {
				if t.TS < p.MinTS {
					p.MinTS = t.TS
				}
				if t.TS > p.MaxTS {
					p.MaxTS = t.TS
				}
			}
			p.Tuples = append(p.Tuples, t)
		}
		for i, p := range split {
			if len(p.Tuples) > 0 {
				parts[i] = append(parts[i], p)
			}
		}
	}
	added := 0
	for i, ps := range parts {
		if len(ps) == 0 {
			continue
		}
		n, err := x.shards[i].Graft(ps)
		if err != nil {
			return added, fmt.Errorf("shard %d: %w", i, err)
		}
		added += n
	}
	return added, nil
}
