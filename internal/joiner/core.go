// Package joiner implements the join processing units of §3.1.2: each
// joiner stores one partition of its own relation in a chained in-memory
// index over a time-based sliding window, joins incoming tuples of the
// opposite relation against it, discards stale sub-indexes by Theorem 1,
// and orders its work through the §3.3 tuple ordering protocol.
package joiner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bistream/internal/checkpoint"
	"bistream/internal/dedup"
	"bistream/internal/index"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// Config configures a joiner core.
type Config struct {
	// ID is the member id within the relation's joiner group.
	ID int32
	// Rel is the relation this joiner stores (its side of the biclique).
	Rel tuple.Relation
	// Pred is the join predicate.
	Pred predicate.Predicate
	// Window is the time-based sliding window; window.Unbounded() runs
	// a full-history join (nothing expires). FullHistory must be set
	// alongside an unbounded window to guard against zero-value
	// configs.
	Window window.Sliding
	// FullHistory acknowledges an unbounded window.
	FullHistory bool
	// ArchivePeriod is the chained index's sub-index span P. Zero
	// means index.DefaultArchivePeriod: Window/4 for a band join,
	// Window/16 for any other, a minute under FullHistory.
	ArchivePeriod time.Duration
	// Shards is the number of per-core store shards the window is
	// partitioned into; batches fan store and probe work out across
	// them in parallel. Zero means GOMAXPROCS; values are clamped to
	// [1, index.MaxShards].
	Shards int
	// Unordered disables the ordering protocol, processing envelopes on
	// arrival. Used by the Figure 8 experiment to demonstrate the
	// missed/duplicate result anomalies the protocol prevents.
	Unordered bool
	// Metrics is the registry the joiner's instruments live in under
	// "joiner.<rel>.<id>."; nil creates a private registry.
	Metrics *metrics.Registry
	// Trace folds sampled per-tuple stage timings into the shared stage
	// histograms; nil disables tracing at this tier.
	Trace *metrics.Tracer
}

// Stats snapshots a joiner's work counters. WorkUnits approximates CPU
// cost: each index insert, probe candidate and expiry visit counts one
// unit; the cluster simulator converts units/s into CPU utilization.
type Stats struct {
	Received    int64 // tuple envelopes accepted from the broker
	Stored      int64 // tuples inserted into the window
	Probed      int64 // opposite-relation tuples join-processed
	Comparisons int64 // probe candidates examined
	Results     int64 // join results emitted
	Expired     int64 // tuples discarded by window expiry
	Deduped     int64 // redelivered tuples suppressed by the idempotency filter
	Pending     int   // envelopes buffered by the ordering protocol
	SubIndexes  int   // live sub-indexes in the chain
	WindowLen   int   // tuples currently stored
	MemBytes    int64 // estimated resident bytes of the window state
	WorkUnits   int64 // cumulative work, for the CPU model
	// Latency summarizes the time tuples spend in the reorder buffer —
	// the latency cost of the ordering protocol, bounded by the
	// punctuation interval (nanosecond observations).
	Latency metrics.Snapshot
}

// Core is the synchronous join logic. It is not safe for concurrent
// use; Service serializes access. Within one HandleBatch call the core
// fans work out across per-shard goroutines, but that parallelism is
// internal: by the time a Core method returns, no worker is running.
type Core struct {
	cfg     Config
	prefix  string // registry name prefix, "joiner.<rel>.<id>."
	idx     *index.Sharded
	reorder *protocol.Reorderer
	// seen makes redelivered tuples idempotent: the broker guarantees
	// at-least-once delivery (manual acks, requeue on crash), and this
	// (relation, seq) filter upgrades it to exactly-once processing.
	seen *dedup.Set

	// Batch-processing scratch, reused across HandleBatch calls so the
	// steady state allocates nothing: the reorderer's release buffer,
	// the current batch's probe plans, and one shardRun per shard
	// holding that shard's op list for the current batch.
	releaseBuf []protocol.Envelope
	plans      []predicate.Plan
	runs       []*shardRun

	// Dedup watermark pruning: seen entries are only needed while the
	// tuples they guard can still be redelivered, so once the reorderer's
	// min frontier has advanced a full horizon (in stamp units) past the
	// last rotation, the older dedup generation is discarded. This bounds
	// the filter by stamp-time instead of relying solely on the count-cap
	// rotation, which under slow unique-key ingest never fires.
	pruneHorizon uint64 // stamp span a dedup entry must survive
	lastRotate   uint64 // min frontier at the previous rotation

	received     *metrics.Counter
	deduped      *metrics.Counter
	stored       *metrics.Counter
	probed       *metrics.Counter
	comparisons  *metrics.Counter
	results      *metrics.Counter
	expired      *metrics.Counter
	work         *metrics.Counter
	migratedIn   *metrics.Counter
	migratedSegs *metrics.Counter
	migratedOut  *metrics.Counter
	dedupRotates *metrics.Counter
	latency      *metrics.Histogram
}

// MetricsPrefix returns the joiner's registry name prefix.
func (c *Core) MetricsPrefix() string { return c.prefix }

// NewCore builds a joiner core.
func NewCore(cfg Config) (*Core, error) {
	if cfg.Pred == nil {
		return nil, fmt.Errorf("joiner: predicate is required")
	}
	if cfg.Window.IsUnbounded() != cfg.FullHistory {
		if cfg.FullHistory {
			return nil, fmt.Errorf("joiner: FullHistory set with a bounded %v", cfg.Window)
		}
		return nil, fmt.Errorf("joiner: window span must be positive (or set FullHistory)")
	}
	if cfg.ArchivePeriod <= 0 {
		cfg.ArchivePeriod = time.Duration(index.DefaultArchivePeriod(cfg.Pred, cfg.Window)) * time.Millisecond
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > index.MaxShards {
		cfg.Shards = index.MaxShards
	}
	idx, err := index.NewSharded(
		index.ForPredicate(cfg.Pred, cfg.Rel),
		cfg.ArchivePeriod.Milliseconds(),
		cfg.Window,
		cfg.Pred.IndexAttr(cfg.Rel),
		cfg.Shards,
	)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	prefix := fmt.Sprintf("joiner.%s.%d.", cfg.Rel, cfg.ID)
	c := &Core{
		cfg:          cfg,
		prefix:       prefix,
		idx:          idx,
		reorder:      protocol.NewReorderer(),
		seen:         dedup.New(0),
		received:     cfg.Metrics.Counter(prefix + "received"),
		deduped:      cfg.Metrics.Counter(prefix + "dedup_suppressed"),
		stored:       cfg.Metrics.Counter(prefix + "stored"),
		probed:       cfg.Metrics.Counter(prefix + "probed"),
		comparisons:  cfg.Metrics.Counter(prefix + "comparisons"),
		results:      cfg.Metrics.Counter(prefix + "results"),
		expired:      cfg.Metrics.Counter(prefix + "expired"),
		work:         cfg.Metrics.Counter(prefix + "work_units"),
		migratedIn:   cfg.Metrics.Counter(prefix + "migrated_in_tuples"),
		migratedSegs: cfg.Metrics.Counter(prefix + "migrated_in_segments"),
		migratedOut:  cfg.Metrics.Counter(prefix + "migrated_out_tuples"),
		dedupRotates: cfg.Metrics.Counter(prefix + "dedup_rotations"),
		latency:      cfg.Metrics.Histogram(prefix + "order_wait_ns"),
	}
	// A dedup entry must outlive any chance of redelivery: broker
	// requeues and router duplicate publishes land within seconds, so
	// one window span plus a generous slack is ample. Full-history joins
	// have no span; a fixed minute keeps them bounded too.
	if cfg.FullHistory {
		c.pruneHorizon = protocol.StampSpan(time.Minute)
	} else {
		c.pruneHorizon = protocol.StampSpan(cfg.Window.Span + 2*time.Second)
	}
	c.runs = make([]*shardRun, idx.NumShards())
	for i := range c.runs {
		r := &shardRun{core: c, shard: idx.Shard(i)}
		r.visit = r.visitOne // bind once; per-probe closures would allocate
		c.runs[i] = r
	}
	return c, nil
}

// ID returns the member id.
func (c *Core) ID() int32 { return c.cfg.ID }

// NumShards returns the number of store shards.
func (c *Core) NumShards() int { return c.idx.NumShards() }

// Rel returns the relation this joiner stores.
func (c *Core) Rel() tuple.Relation { return c.cfg.Rel }

// AddRouter registers a router path with the ordering protocol.
func (c *Core) AddRouter(id int32) {
	c.reorder.AddRouter(id, protocol.SourceStore)
	c.reorder.AddRouter(id, protocol.SourceJoin)
}

// RemoveRouter unregisters a router (scale-in of the router group) and
// processes whatever its departure unblocks.
func (c *Core) RemoveRouter(id int32, emit func(tuple.JoinResult)) {
	c.processReleased(c.reorder.RemoveRouterAndRelease(id), emit)
}

// HandleBatch feeds a batch of envelopes from one source path into the
// joiner; it is the core's only entry point, and a single envelope is a
// one-element batch. The whole batch drains into the reorder buffer
// first, then every envelope the batch released is processed through
// the sharded pipeline — one classification pass partitions store and
// probe work across the shards, and the shards run in parallel when the
// batch is big enough to pay for the goroutine handoff. Join results
// are passed to emit (from the calling goroutine only) as each batch
// completes, grouped by shard rather than strictly in release order.
func (c *Core) HandleBatch(envs []protocol.Envelope, src protocol.Source, emit func(tuple.JoinResult)) {
	received := 0
	release := c.releaseBuf[:0]
	var now int64
	for _, env := range envs {
		if env.Kind == protocol.KindTuple {
			received++
			if env.Tuple != nil {
				c.cfg.Trace.Observe(metrics.StageDeliver, env.Tuple.TraceNS)
			}
			if c.cfg.Unordered {
				release = append(release, env)
				continue
			}
			if env.RecvNanos == 0 {
				if now == 0 {
					now = time.Now().UnixNano()
				}
				env.RecvNanos = now
			}
		}
		if !c.cfg.Unordered {
			release = c.reorder.AddInto(env, src, release)
		}
	}
	c.releaseBuf = release
	if received > 0 {
		c.received.Add(int64(received))
	}
	c.processReleased(release, emit)
	clearEnvelopes(release)
}

// clearEnvelopes zeroes a spent release buffer so the reused backing
// array does not pin tuples past their batch.
func clearEnvelopes(envs []protocol.Envelope) {
	for i := range envs {
		envs[i] = protocol.Envelope{}
	}
}

// parallelBatchMin is the released-batch size below which fanning out
// to shard goroutines costs more than it saves; smaller batches run the
// shards sequentially on the calling goroutine.
const parallelBatchMin = 32

// shardOp is one unit of work bound for a shard: a store of t into the
// shard, or a probe of t's plan against it. Plans live in Core.plans,
// built once per probe and shared by the shards a probe fans out to,
// so an op stays two words and a store carries no plan.
type shardOp struct {
	t    *tuple.Tuple
	plan int32 // index into Core.plans; storeOp for a store
}

// storeOp is a shardOp's plan index for a store.
const storeOp = -1

// shardRun is a shard's slice of the current batch plus everything its
// worker needs without touching shared state: the op list built by the
// classification pass, a result buffer drained (and cleared) by the
// caller after the batch, and private tallies merged into the shared
// counters once per batch. All fields are owned by exactly one
// goroutine at a time — the classifier before the workers start, one
// worker during the run, the caller after Wait.
type shardRun struct {
	core  *Core
	shard *index.Chained
	ops   []shardOp
	visit func(*tuple.Tuple) bool

	cur         *tuple.Tuple // tuple of the probe op being served
	results     []tuple.JoinResult
	comparisons int64
	expired     int64
}

// visitOne is the probe candidate visitor, bound once as r.visit.
func (r *shardRun) visitOne(stored *tuple.Tuple) bool {
	r.comparisons++
	var rt, st *tuple.Tuple
	if r.core.cfg.Rel == tuple.R {
		rt, st = stored, r.cur
	} else {
		rt, st = r.cur, stored
	}
	if r.core.cfg.Window.Contains(stored.TS, r.cur.TS) && r.core.cfg.Pred.Match(rt, st) {
		r.results = append(r.results, tuple.NewJoinResult(rt, st))
	}
	return true
}

// run executes the shard's op list in order. This is the one place
// window expiry happens: data discarding precedes each probe (Theorem
// 1, at sub-index granularity, §3.1.2), and a final sweep at the batch's
// max probe timestamp keeps shards no probe happened to visit from
// accumulating stale sub-indexes. A shard never expires past the probe
// in hand, and every candidate is still checked with Window.Contains.
func (r *shardRun) run(maxProbeTS int64, hasProbe bool) {
	plans := r.core.plans
	for i := range r.ops {
		op := &r.ops[i]
		if op.plan == storeOp {
			r.shard.Insert(op.t)
			continue
		}
		r.expired += int64(r.shard.Expire(op.t.TS))
		r.cur = op.t
		r.shard.Probe(&plans[op.plan], r.visit)
	}
	if hasProbe {
		r.expired += int64(r.shard.Expire(maxProbeTS))
	}
	r.cur = nil
}

// processReleased pushes released envelopes through the sharded
// pipeline: classify sequentially (dedup and misroute checks are
// order-sensitive and shared), partition into per-shard op lists, run
// the shards, then drain results and merge tallies.
func (c *Core) processReleased(released []protocol.Envelope, emit func(tuple.JoinResult)) {
	if len(released) == 0 {
		return
	}
	var dedupedN, storedN, probedN int64
	var maxProbeTS int64
	hasProbe := false
	ordered := !c.cfg.Unordered
	var now int64
	for _, e := range released {
		t := e.Tuple
		if t == nil {
			continue
		}
		if ordered && e.RecvNanos != 0 {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			c.latency.Observe(now - e.RecvNanos)
		}
		if ordered {
			c.cfg.Trace.Observe(metrics.StageOrder, t.TraceNS)
		}
		// A redelivery (consumer crash, requeue, duplicate publish) would
		// double-insert or re-emit. Within one core each (relation, seq)
		// legitimately arrives on exactly one stream, once, so
		// suppression is safe.
		if c.seen.SeenOrAdd(dedup.Key{uint64(t.Rel), t.Seq}) {
			dedupedN++
			continue
		}
		switch e.Stream {
		case protocol.StreamStore:
			if t.Rel != c.cfg.Rel {
				continue // misrouted; a store copy must be our own relation
			}
			r := c.runs[c.idx.ShardFor(t)]
			r.ops = append(r.ops, shardOp{t: t, plan: storeOp})
			storedN++
			c.cfg.Trace.Observe(metrics.StageStore, t.TraceNS)
		case protocol.StreamJoin:
			if t.Rel != c.cfg.Rel.Opposite() {
				continue
			}
			op := shardOp{t: t, plan: int32(len(c.plans))}
			c.plans = append(c.plans, c.cfg.Pred.Plan(t))
			if s := c.idx.ProbeShard(&c.plans[op.plan]); s >= 0 {
				r := c.runs[s]
				r.ops = append(r.ops, op)
			} else {
				// Non-partitionable probe: every shard holds candidate
				// tuples, so the probe op replicates into each shard's
				// list. Each replica only scans its own shard, so the
				// total candidate work matches the unsharded scan.
				for _, r := range c.runs {
					r.ops = append(r.ops, op)
				}
			}
			probedN++
			if !hasProbe || t.TS > maxProbeTS {
				maxProbeTS = t.TS
				hasProbe = true
			}
			c.cfg.Trace.Observe(metrics.StageProbe, t.TraceNS)
		}
	}
	if len(c.runs) > 1 && len(released) >= parallelBatchMin {
		var wg sync.WaitGroup
		for _, r := range c.runs[1:] {
			if len(r.ops) == 0 && !hasProbe {
				continue
			}
			wg.Add(1)
			go func(r *shardRun) {
				defer wg.Done()
				r.run(maxProbeTS, hasProbe)
			}(r)
		}
		c.runs[0].run(maxProbeTS, hasProbe)
		wg.Wait()
	} else {
		for _, r := range c.runs {
			if len(r.ops) == 0 && !hasProbe {
				continue
			}
			r.run(maxProbeTS, hasProbe)
		}
	}
	var comparisonsN, expiredN, resultsN int64
	for _, r := range c.runs {
		comparisonsN += r.comparisons
		expiredN += r.expired
		r.comparisons, r.expired = 0, 0
		for i := range r.results {
			emit(r.results[i])
		}
		resultsN += int64(len(r.results))
		for i := range r.results {
			r.results[i] = tuple.JoinResult{} // drop tuple pointers
		}
		r.results = r.results[:0]
		clear(r.ops)
		r.ops = r.ops[:0]
	}
	clear(c.plans) // drop key strings
	c.plans = c.plans[:0]
	if dedupedN > 0 {
		c.deduped.Add(dedupedN)
	}
	if storedN > 0 {
		c.stored.Add(storedN)
	}
	if probedN > 0 {
		c.probed.Add(probedN)
	}
	if comparisonsN > 0 {
		c.comparisons.Add(comparisonsN)
	}
	if resultsN > 0 {
		c.results.Add(resultsN)
	}
	if expiredN > 0 {
		c.expired.Add(expiredN)
	}
	if work := storedN + probedN + comparisonsN; work > 0 {
		c.work.Add(work)
	}
	c.maybeRotateSeen()
}

// maybeRotateSeen drops the older dedup generation once the reorderer's
// min frontier — the stamp below which every delivered envelope has
// been released and processed — has advanced a full prune horizon past
// the previous rotation. Entries therefore survive between one and two
// horizons of stamp-time, far longer than any redelivery can lag, while
// the filter stays bounded under sustained ingest. The count-cap
// rotation inside dedup.Set remains as the memory backstop.
func (c *Core) maybeRotateSeen() {
	f := c.reorder.MinFrontier()
	if f == 0 {
		return // no punctuation yet (or unordered mode): nothing to anchor on
	}
	if c.lastRotate == 0 || f < c.lastRotate {
		// First anchor, or the min frontier regressed because a new
		// router path joined and has not punctuated yet: re-anchor.
		c.lastRotate = f
		return
	}
	if f-c.lastRotate < c.pruneHorizon {
		return
	}
	c.seen.Rotate()
	c.lastRotate = f
	c.dedupRotates.Inc()
}

// Flush releases and processes every buffered envelope regardless of
// punctuation frontiers (engine shutdown).
func (c *Core) Flush(emit func(tuple.JoinResult)) {
	c.processReleased(c.reorder.Flush(), emit)
}

// Stats snapshots the joiner's counters.
func (c *Core) Stats() Stats {
	return Stats{
		Received:    c.received.Value(),
		Stored:      c.stored.Value(),
		Probed:      c.probed.Value(),
		Comparisons: c.comparisons.Value(),
		Results:     c.results.Value(),
		Expired:     c.expired.Value(),
		Deduped:     c.deduped.Value(),
		Pending:     c.reorder.Pending(),
		SubIndexes:  c.idx.NumSubIndexes(),
		WindowLen:   c.idx.Len(),
		MemBytes:    c.MemBytes(),
		WorkUnits:   c.work.Value(),
		Latency:     c.latency.Snapshot(),
	}
}

// MemBytes estimates the joiner's resident state: the chained index plus
// the reorder buffer.
func (c *Core) MemBytes() int64 {
	return c.idx.MemBytes() + int64(c.reorder.Pending())*96
}

// Snapshot captures the core's full recoverable state: the chained
// index per segment (sealed sub-indexes are immutable, so the
// checkpoint layer writes each once), the ordering protocol's frontiers
// and still-buffered envelopes, and the dedup filter. The caller
// (Service) must hold its serialization lock; the returned snapshot
// shares tuple pointers with the live index, which is safe because
// stored tuples are immutable after insertion.
func (c *Core) Snapshot() *checkpoint.Snapshot {
	fronts, pending := c.reorder.Export()
	return &checkpoint.Snapshot{
		Rel:       c.cfg.Rel,
		JoinerID:  c.cfg.ID,
		Segments:  c.idx.ExportSegments(),
		Frontiers: fronts,
		Pending:   pending,
		Dedup:     c.seen.Export(),
	}
}

// Restore replaces the core's window, ordering and dedup state with a
// recovered snapshot — the cold-restart path: the core must be freshly
// built and not yet receiving traffic. Router paths registered before
// the restore are preserved only through the snapshot's own frontiers;
// call AddRouter after Restore for any paths added since the checkpoint
// (AddRouter never regresses an existing frontier).
func (c *Core) Restore(snap *checkpoint.Snapshot) error {
	if snap.Rel != c.cfg.Rel || snap.JoinerID != c.cfg.ID {
		return fmt.Errorf("joiner: snapshot for %s-%d restored into %s-%d",
			snap.Rel, snap.JoinerID, c.cfg.Rel, c.cfg.ID)
	}
	if err := c.idx.ImportSegments(snap.Segments); err != nil {
		return fmt.Errorf("joiner: restore: %w", err)
	}
	c.reorder.Restore(snap.Frontiers, snap.Pending)
	c.seen = dedup.FromState(snap.Dedup)
	return nil
}

// Graft adds a migration donor's sealed segments to this member's
// window (live scale-in). The segments keep their donor identity
// (origin, id), which makes a retried graft idempotent at segment
// granularity: after a recipient crash between graft and checkpoint,
// replaying the same segments adds nothing. The donor's dedup filter is
// deliberately NOT merged — copies of in-flight tuples addressed to
// this member must still process here, and segment-level identity
// already suppresses the only duplication grafting can cause.
//
// A graft that adds tuples also forgets the probes this member has seen
// (the opposite relation's dedup keys): their evaluation here predates
// the grafted tuples. A later copy of such a probe — a router's re-route
// after a fan-out that failed part-way, stamped past the migration's
// cut-over so the donor no longer answers it — must be evaluated again,
// or its pairs with the moved tuples are lost. The pairs the re-run
// repeats reach the sink's result dedup, as the migration overlap's do.
func (c *Core) Graft(segs []index.Segment) error {
	added, err := c.idx.Graft(segs)
	if err != nil {
		return fmt.Errorf("joiner: graft: %w", err)
	}
	if added > 0 {
		probes := uint64(c.cfg.Rel.Opposite())
		c.seen.DeleteFunc(func(k dedup.Key) bool { return k[0] == probes })
	}
	c.migratedIn.Add(int64(added))
	c.migratedSegs.Add(int64(len(segs)))
	c.work.Add(int64(added))
	return nil
}

// MinFrontier exposes the ordering protocol's release frontier: every
// delivered envelope stamped at or below it has been released from the
// reorder buffer and processed. Migration polls it to detect drain.
func (c *Core) MinFrontier() uint64 { return c.reorder.MinFrontier() }

// ExportKey returns the stored tuples whose join key hashes to keyHash
// (hot-key migration export). The tuples stay in the window — the donor
// keeps serving broadcast probes against them until the migration's
// cut-over removes exactly this set via DropKeySeqs. Pointers are
// shared; stored tuples are immutable.
func (c *Core) ExportKey(keyHash uint64) []*tuple.Tuple {
	return c.idx.ExportKey(keyHash)
}

// DropKeySeqs removes the tuples of keyHash whose sequence numbers are
// in seqs — the set a prior ExportKey captured — and returns how many
// were removed. Tuples of the same key stored after the export (the
// scattered arrivals of the key's hot placement) are untouched.
func (c *Core) DropKeySeqs(keyHash uint64, seqs []uint64) int {
	n := c.idx.RemoveKeySeqs(c.cfg.ID, keyHash, seqs)
	if n > 0 {
		c.migratedOut.Add(int64(n))
	}
	return n
}

// SeenLen reports the dedup filter's current entry count (tests and
// memory accounting for the watermark-pruning bound).
func (c *Core) SeenLen() int { return c.seen.Len() }
