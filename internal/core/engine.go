// Package core wires the join-biclique engine together: router
// services, the two joiner groups forming the biclique's vertex sets, a
// broker-backed fabric connecting them, and elastic scale in/out of both
// tiers without data migration. It is the system the source text calls
// elastic-biclique and the SIGMOD paper calls BiStream.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bistream/internal/broker"
	"bistream/internal/checkpoint"
	"bistream/internal/dedup"
	"bistream/internal/joiner"
	"bistream/internal/metrics"
	"bistream/internal/migrate"
	"bistream/internal/obs"
	"bistream/internal/predicate"
	"bistream/internal/router"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/vclock"
	"bistream/internal/window"
)

// Config configures an Engine.
type Config struct {
	// Predicate is the join predicate (required).
	Predicate predicate.Predicate
	// Window is the time-based sliding window span. Required unless
	// FullHistory is set.
	Window time.Duration
	// FullHistory runs the join over the entire accumulated streams
	// instead of a window: nothing ever expires, joiner state grows
	// with the stream, and joiner groups can scale out but not in
	// (scale-in without migration relies on window drain).
	FullHistory bool
	// ArchivePeriod is the chained index's sub-index span P. Zero
	// defaults to Window/4 for a band predicate and Window/16 for any
	// other (index.DefaultArchivePeriod).
	ArchivePeriod time.Duration
	// Shards is the number of per-core store shards each joiner
	// partitions its window into; batches of deliveries fan out across
	// the shards in parallel. Zero defaults to GOMAXPROCS; values are
	// clamped to [1, index.MaxShards].
	Shards int
	// Routers is the number of router instances (default 1).
	Routers int
	// RJoiners and SJoiners size the two biclique vertex sets
	// (default 1 each).
	RJoiners, SJoiners int
	// RSubgroups/SSubgroups set the routing strategy per group: 1 =
	// random (broadcast) routing, equal to the group size = pure hash
	// partitioning, in between = the subgroup hybrid. Zero selects
	// automatically: hash for partitionable predicates, random
	// otherwise.
	RSubgroups, SSubgroups int
	// PunctuationInterval paces the ordering protocol's signals
	// (default 20ms, wall clock).
	PunctuationInterval time.Duration
	// Clock supplies the engine's notion of time for statistics and
	// layout drain tracking (default: wall clock). Tuple timestamps are
	// set by sources, not the engine.
	Clock vclock.Clock
	// Broker connects the services. Nil starts a private in-process
	// broker; a wire.Client here runs the engine against a remote
	// brokerd.
	Broker broker.Client
	// OnResult, when set, receives every join result synchronously from
	// the sink and disables the Results channel. The result's tuples are
	// carved out of the sink decoder's slab chunks, which hold hundreds
	// of tuples each: an application that keeps a sparse subset of
	// results pins whole chunks, and should copy what it keeps.
	OnResult func(tuple.JoinResult)
	// ContRand enables frequency-aware routing for partitionable
	// predicates: keys whose recent traffic share exceeds HotFraction
	// scatter their stores across the group (restoring balance under
	// skew) while their probes broadcast (preserving correctness);
	// cold keys keep one-copy hash routing.
	ContRand bool
	// HotFraction is the promotion threshold (default 0.01).
	HotFraction float64
	// AdaptiveRouting closes the ContRand loop: an adaptation
	// controller watches the tracker's promotions and live-migrates
	// each newly hot key's stored partition from its hash owners to the
	// scattered owners (metrics under router_adapt_*). Implies
	// ContRand.
	AdaptiveRouting bool
	// Metrics is the registry every tier registers its instruments in
	// (router.<id>.*, joiner.<rel>.<id>.*, engine.*, broker.* when the
	// engine owns its broker, stage.* trace histograms). Nil creates a
	// fresh registry, exposed via Engine.Metrics().
	Metrics *metrics.Registry
	// MetricsAddr, when non-empty, serves the observability endpoints
	// (/metrics Prometheus text, /debug/vars JSON, /debug/pprof) for
	// the engine's registry over HTTP. ":0" picks a free port;
	// Engine.MetricsAddr reports the bound address.
	MetricsAddr string
	// TraceSample samples one in N ingested tuples for per-stage
	// latency tracing (stage.route … stage.e2e histograms). Zero uses
	// metrics.DefaultTraceSample; negative disables tracing.
	TraceSample int
	// EntryBound caps the entry queue's backlog (broker MaxLen):
	// Ingest blocks — or IngestContext cancels — once that many raw
	// tuples are unrouted. Zero leaves the entry queue unbounded.
	EntryBound int
	// Checkpoint, when non-nil, enables checkpointed joiners: each
	// member checkpoints its window, ordering and dedup state to its own
	// store from this provider, defers broker acks to checkpoint commits,
	// and recovers that state on a cold restart. Nil runs the engine
	// with in-memory joiner state only (warm restarts keep state, cold
	// restarts lose the window).
	Checkpoint checkpoint.Provider
	// CheckpointInterval paces each joiner's checkpoint rounds; zero
	// uses the joiner service default. Shorter intervals tighten the
	// redelivery burst after a cold crash at the cost of more store
	// writes (only the live segment is rewritten per round).
	CheckpointInterval time.Duration
	// MigrationTimeout bounds one donor's state move — a full-history
	// scale-in or a hot-key move (drain, graft, cut-over); zero uses
	// migrate.DefaultTimeout.
	MigrationTimeout time.Duration
}

func (c *Config) applyDefaults() error {
	if c.Predicate == nil {
		return errors.New("core: Predicate is required")
	}
	if c.FullHistory {
		if c.Window != 0 {
			return errors.New("core: FullHistory and Window are mutually exclusive")
		}
	} else if c.Window <= 0 {
		return errors.New("core: Window must be positive (or set FullHistory)")
	}
	if c.Routers <= 0 {
		c.Routers = 1
	}
	if c.RJoiners <= 0 {
		c.RJoiners = 1
	}
	if c.SJoiners <= 0 {
		c.SJoiners = 1
	}
	if c.RSubgroups == 0 {
		if c.Predicate.Partitionable() {
			c.RSubgroups = c.RJoiners
		} else {
			c.RSubgroups = 1
		}
	}
	if c.SSubgroups == 0 {
		if c.Predicate.Partitionable() {
			c.SSubgroups = c.SJoiners
		} else {
			c.SSubgroups = 1
		}
	}
	if c.PunctuationInterval <= 0 {
		c.PunctuationInterval = router.DefaultPunctuationInterval
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	return nil
}

// sinkQueue is the durable queue the result sink consumes.
const sinkQueue = topo.ResultExchange + ".sink"

// resultChanSize sizes the Results channel. When it is full the sink
// blocks, backpressuring joiners.
const resultChanSize = 4096

// Engine is the running join-biclique system.
type Engine struct {
	cfg     Config
	win     window.Sliding
	ownB    *broker.Broker // non-nil when we own the in-process broker
	client  broker.Client
	results chan tuple.JoinResult
	hot     *router.HotTracker // shared ContRand tracker, nil if disabled
	adapter *router.Adapter    // hot-key migration controller, nil if disabled
	reg     *metrics.Registry
	tracer  *metrics.Tracer // nil when tracing is disabled

	// tuplesIn and resultsN are registry counters (atomic), so Stats
	// and the exporter read them without taking e.mu.
	tuplesIn *metrics.Counter // engine.tuples_in
	resultsN *metrics.Counter // engine.results

	// resultSeen dedups result pairs at the sink: the joiners' retry
	// buffer and the broker's at-least-once redelivery can both deliver
	// a result frame twice, and the (left seq, right seq) pair identifies
	// each of its results exactly. Touched only by the sink goroutine (dedup.Set is not
	// concurrency-safe).
	resultSeen  *dedup.Set
	resultDedup *metrics.Counter // engine.result_dedup

	migrations     *metrics.Counter // engine.migrations
	migratedTuples *metrics.Counter // engine.migrated_tuples

	mu      sync.Mutex
	routers []*router.Service
	// members is the membership table: one record per joiner member of
	// either relation, active, sealed or migrating, until it retires
	// (member.go). Every record's service consumes and emits; only
	// active records are in the layout.
	members []*member
	// migLock serializes migrations end to end without holding e.mu
	// across the drain and cut-over waits.
	migLock    sync.Mutex
	migAttempt uint64 // key-move counter, qualifies graft ids (migrate.KeyGrafts)
	nextRtr    int32
	nextJid    [2]int32
	obsSrv     *obs.Server
	sinkCons   broker.Consumer
	sinkDone   chan struct{}
	sinkStop   chan struct{}

	// cursorFloor is the highest stamp cursor of a router ScaleRouters
	// removed (its tombstone's counter). stampCursor never reads below
	// it, so a barrier still covers every copy a removed router published.
	cursorFloor uint64

	// state and seq are atomics so Ingest, the per-tuple entry point,
	// takes no lock; state changes only under mu.
	state atomic.Int32  // engineNew → engineRunning → engineStopped
	seq   atomic.Uint64 // last sequence number Ingest assigned
}

// The engine's run states.
const (
	engineNew int32 = iota
	engineRunning
	engineStopped
)

// running reports whether the engine is between Start and Stop.
func (e *Engine) running() bool { return e.state.Load() == engineRunning }

// New validates the configuration and assembles an engine. Call Start
// to begin processing.
func New(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if !cfg.Predicate.Partitionable() && (cfg.RSubgroups != 1 || cfg.SSubgroups != 1) {
		return nil, fmt.Errorf("core: predicate %v requires subgroups=1 (random routing)", cfg.Predicate)
	}
	if cfg.RSubgroups < 1 || cfg.RSubgroups > cfg.RJoiners {
		return nil, fmt.Errorf("core: RSubgroups %d out of range [1,%d]", cfg.RSubgroups, cfg.RJoiners)
	}
	if cfg.SSubgroups < 1 || cfg.SSubgroups > cfg.SJoiners {
		return nil, fmt.Errorf("core: SSubgroups %d out of range [1,%d]", cfg.SSubgroups, cfg.SJoiners)
	}
	if cfg.AdaptiveRouting {
		cfg.ContRand = true
	}
	e := &Engine{
		cfg: cfg,
		win: window.Sliding{Span: cfg.Window},
	}
	if cfg.ContRand {
		if !cfg.Predicate.Partitionable() {
			return nil, fmt.Errorf("core: ContRand requires a partitionable predicate")
		}
		hot, err := router.NewHotTracker(router.HotConfig{
			HotFraction: cfg.HotFraction,
			Window:      e.win,
		})
		if err != nil {
			return nil, err
		}
		e.hot = hot
	}
	if cfg.Broker != nil {
		e.client = cfg.Broker
	} else {
		e.ownB = broker.New(cfg.Clock)
		e.client = e.ownB
	}
	if cfg.OnResult == nil {
		e.results = make(chan tuple.JoinResult, resultChanSize)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
		e.cfg.Metrics = cfg.Metrics
	}
	e.reg = cfg.Metrics
	if cfg.TraceSample >= 0 {
		every := cfg.TraceSample
		if every == 0 {
			every = metrics.DefaultTraceSample
		}
		e.tracer = metrics.NewTracer(e.reg, every)
	}
	e.tuplesIn = e.reg.Counter("engine.tuples_in")
	e.resultsN = e.reg.Counter("engine.results")
	e.resultDedup = e.reg.Counter("engine.result_dedup")
	e.migrations = e.reg.Counter("engine.migrations")
	e.migratedTuples = e.reg.Counter("engine.migrated_tuples")
	e.resultSeen = dedup.New(0)
	gauge := func(name string, n func() int) {
		e.reg.GaugeFunc(name, func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(n())
		})
	}
	gauge("engine.routers", func() int { return len(e.routers) })
	gauge("engine.joiners.R", func() int { return len(e.activeLocked(tuple.R)) })
	gauge("engine.joiners.S", func() int { return len(e.activeLocked(tuple.S)) })
	gauge("engine.sealed", func() int { return len(e.filterLocked(isSealed)) })
	gauge("engine.migrating", func() int { return len(e.filterLocked((*member).migrating)) })
	if e.ownB != nil {
		broker.RegisterMetrics(e.ownB, e.reg)
	}
	return e, nil
}

// Metrics returns the engine's metric registry. All tiers register
// their instruments here; obs.Handler(e.Metrics()) serves it over HTTP.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// MetricsAddr returns the bound address of the engine's observability
// server, or "" when Config.MetricsAddr was empty or the engine has
// not started.
func (e *Engine) MetricsAddr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.obsSrv == nil {
		return ""
	}
	return e.obsSrv.Addr()
}

// Start declares the topology and launches routers, joiners and the
// result sink.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Load() != engineNew {
		return errors.New("core: engine already started")
	}
	// Bound the entry queue before topo.Declare's unbounded declare:
	// the broker treats a MaxLen-free redeclare of an otherwise
	// identical queue as passive, so declaration order sets the bound.
	if e.cfg.EntryBound > 0 {
		if err := e.client.DeclareQueue(topo.EntryQueue, broker.QueueOptions{
			Durable: true, MaxLen: e.cfg.EntryBound,
		}); err != nil {
			return err
		}
	}
	if err := topo.Declare(e.client); err != nil {
		return err
	}
	// Result sink first so no result is dropped. The queue is durable
	// and consumption manual-ack so results survive a broker restart and
	// a sink crash between delivery and handoff redelivers instead of
	// losing the pair.
	if err := e.client.DeclareQueue(sinkQueue, broker.QueueOptions{Durable: true}); err != nil {
		return err
	}
	if err := e.client.Bind(sinkQueue, topo.ResultExchange, topo.ResultKey); err != nil {
		return err
	}
	cons, err := e.client.Consume(sinkQueue, 2*maxSinkBatch, false)
	if err != nil {
		return err
	}
	e.sinkCons = cons
	e.sinkDone = make(chan struct{})
	e.sinkStop = make(chan struct{})
	go e.sinkLoop(cons)

	// Joiners before routers so layout targets exist.
	for i := 0; i < e.cfg.RJoiners; i++ {
		if err := e.addJoinerLocked(tuple.R); err != nil {
			return err
		}
	}
	for i := 0; i < e.cfg.SJoiners; i++ {
		if err := e.addJoinerLocked(tuple.S); err != nil {
			return err
		}
	}
	for i := 0; i < e.cfg.Routers; i++ {
		if err := e.addRouterLocked(); err != nil {
			return err
		}
	}
	if e.cfg.AdaptiveRouting {
		ad, err := router.NewAdapter(router.AdaptConfig{
			Tracker:    e.hot,
			MigrateKey: e.migrateKey,
			Metrics:    e.reg,
		})
		if err != nil {
			return err
		}
		e.adapter = ad
		ad.Start()
	}
	if e.cfg.MetricsAddr != "" {
		srv, err := obs.Serve(e.cfg.MetricsAddr, e.reg)
		if err != nil {
			return fmt.Errorf("core: metrics server: %w", err)
		}
		e.obsSrv = srv
	}
	// Retirement must not depend on anyone polling Stats: sealed members
	// and parked migration donors are reaped on a timer.
	go e.reapLoop()
	e.state.Store(engineRunning)
	return nil
}

// reapLoop drives Reap until the engine stops, so sealed joiners
// retire even when no caller ever asks for Stats.
func (e *Engine) reapLoop() {
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-e.sinkStop:
			return
		case <-t.C:
			e.Reap()
		}
	}
}

func (e *Engine) addJoinerLocked(rel tuple.Relation) error {
	id := e.nextJid[rel]
	e.nextJid[rel]++
	svc, err := e.buildJoinerLocked(rel, id)
	if err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	for _, r := range e.routers {
		svc.AddRouter(r.ID())
	}
	e.members = append(e.members, &member{rel: rel, id: id, svc: svc})
	return nil
}

// buildJoinerLocked constructs (but does not start) a joiner member with
// an explicit id — the shared path of scale-out (fresh ids) and cold
// restart (reusing a crashed member's id, so the service re-attaches to
// the same durable queues, metric names and checkpoint store). When the
// engine is configured with a checkpoint provider the member recovers
// whatever intact checkpoint its store holds before it starts consuming.
func (e *Engine) buildJoinerLocked(rel tuple.Relation, id int32) (*joiner.Service, error) {
	core, err := joiner.NewCore(joiner.Config{
		ID:            id,
		Rel:           rel,
		Pred:          e.cfg.Predicate,
		Window:        e.win,
		FullHistory:   e.cfg.FullHistory,
		ArchivePeriod: e.cfg.ArchivePeriod,
		Shards:        e.cfg.Shards,
		Metrics:       e.reg,
		Trace:         e.tracer,
	})
	if err != nil {
		return nil, err
	}
	svc := joiner.NewService(core, e.client)
	if e.cfg.Checkpoint != nil {
		store, err := e.cfg.Checkpoint.StoreFor(rel, id)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint store for %s-%d: %w", rel, id, err)
		}
		ck := checkpoint.New(checkpoint.Config{
			Store:   store,
			Metrics: e.reg,
			Prefix:  core.MetricsPrefix(),
		})
		if _, err := svc.EnableCheckpointing(ck, e.cfg.CheckpointInterval); err != nil {
			return nil, fmt.Errorf("core: recover %s-%d: %w", rel, id, err)
		}
	}
	return svc, nil
}

func (e *Engine) addRouterLocked() error {
	id := e.nextRtr
	e.nextRtr++
	core, err := router.NewCore(router.Config{
		ID:      id,
		Pred:    e.cfg.Predicate,
		Window:  e.win,
		Hot:     e.hot, // shared across routers so decisions agree
		Metrics: e.reg,
		Trace:   e.tracer,
	})
	if err != nil {
		return err
	}
	svc := router.NewService(core, e.client, e.cfg.Clock, router.ServiceConfig{
		PunctuationInterval: e.cfg.PunctuationInterval,
	})
	// Register the router with every joiner before it can send.
	for _, m := range e.members {
		m.svc.AddRouter(id)
	}
	// A router joining a running tier copies a peer's generation table
	// and dead set, so its join fan-out covers every membership still
	// draining; the engine keeps no layout history of its own. The first
	// router gets the current layout.
	if len(e.routers) > 0 {
		svc.CopyLayouts(e.routers[0])
	} else {
		nowTS := e.cfg.Clock.Now().UnixMilli()
		for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
			if err := svc.SetLayout(rel, e.memberIDsLocked(rel), e.subgroupsLocked(rel), nowTS); err != nil {
				return err
			}
		}
	}
	if err := svc.Start(); err != nil {
		return err
	}
	e.routers = append(e.routers, svc)
	return nil
}

func (e *Engine) memberIDsLocked(rel tuple.Relation) []int32 {
	var ids []int32
	for _, m := range e.activeLocked(rel) {
		ids = append(ids, m.id)
	}
	return ids
}

// subgroupsLocked derives the subgroup count for the current group
// size, preserving the configured strategy: pure hash stays pure hash
// as the group grows; fixed subgroup counts are clamped to the size.
func (e *Engine) subgroupsLocked(rel tuple.Relation) int {
	cfgd := e.cfg.RSubgroups
	cfgSize := e.cfg.RJoiners
	if rel == tuple.S {
		cfgd = e.cfg.SSubgroups
		cfgSize = e.cfg.SJoiners
	}
	n := len(e.activeLocked(rel))
	if n == 0 {
		return 1
	}
	if cfgd == cfgSize {
		return n // pure hash tracks the group size
	}
	if cfgd > n {
		return n
	}
	return cfgd
}

// Ingest publishes a raw tuple into the system (the stream-service
// role). Seq is assigned if zero. With a bounded entry queue
// (Config.EntryBound) it blocks while the backlog is full; use
// IngestContext to bound that wait.
func (e *Engine) Ingest(t *tuple.Tuple) error {
	return e.IngestContext(context.Background(), t)
}

// IngestContext is Ingest honoring cancellation: when ctx is done while
// backpressure blocks the publish, it returns ctx.Err() without
// ingesting the tuple.
func (e *Engine) IngestContext(ctx context.Context, t *tuple.Tuple) error {
	if !e.running() {
		return errors.New("core: engine not running")
	}
	if t.Seq == 0 {
		t.Seq = e.seq.Add(1)
	}
	if t.TraceNS == 0 {
		t.TraceNS = e.tracer.Stamp() // nonzero for one in N tuples
	}
	var err error
	if cp, ok := e.client.(broker.ContextPublisher); ok {
		err = cp.PublishContext(ctx, topo.EntryExchange, topo.EntryKey, nil, tuple.Marshal(t))
	} else if err = ctx.Err(); err == nil {
		// Client without context support: best-effort pre-publish check.
		err = e.client.Publish(topo.EntryExchange, topo.EntryKey, nil, tuple.Marshal(t))
	}
	if err == nil {
		e.tuplesIn.Inc() // a cancelled publish was never ingested
	}
	return err
}

// Results returns the join result channel (nil when OnResult is set).
// Result tuples come from the sink decoder's slab chunks, so keeping a
// sparse subset of results pins whole chunks; copy what you keep.
func (e *Engine) Results() <-chan tuple.JoinResult { return e.results }

// maxSinkBatch caps how many result deliveries one sinkLoop wakeup
// hands over before settling them with a single AckBatch; the sink
// queue's prefetch is twice that, so the broker refills the delivery
// channel while a full batch is being handed over.
const maxSinkBatch = 512

// sinkLoop drains the result queue in batches: block for one delivery,
// gather whatever else is already queued (up to maxSinkBatch), decode
// each delivery's result frame and hand its pairs to the application in
// arrival order, then settle the batch. Frames decode through one
// slab-backed decoder, so a frame's tuples cost a share of a slab chunk
// rather than allocations of their own.
func (e *Engine) sinkLoop(cons broker.Consumer) {
	defer close(e.sinkDone)
	var dec tuple.Decoder
	var pairs []*tuple.Tuple
	batch := make([]broker.Delivery, 0, maxSinkBatch)
	tags := make([]uint64, 0, maxSinkBatch)
	ch := cons.Deliveries()
	for d := range ch {
		var open bool
		batch, open = broker.Drain(ch, d, batch)
		tags = tags[:0]
		stopping := false
		var results, dups int64
		for i := range batch {
			var err error
			if pairs, err = dec.AppendPairs(pairs[:0], batch[i].Body); err != nil {
				// Poison: dead-letter the whole frame for inspection. The
				// decoder took it in full or not at all, so none of its
				// pairs reached the application.
				_ = cons.Nack(batch[i].Tag, false)
				continue
			}
			for j := 0; j < len(pairs) && !stopping; j += 2 {
				l, r := pairs[j], pairs[j+1]
				if e.resultSeen.SeenOrAdd(dedup.Key{l.Seq, r.Seq}) {
					// The pair already reached the application: a
					// redelivery after a lost ack, or a joiner retry whose
					// first publish did land. Settle it without emitting a
					// duplicate.
					dups++
					continue
				}
				results++
				stopping = !e.deliver(l, r)
			}
			if stopping {
				// The frame stays unacked; on redelivery the dedup
				// absorbs the prefix that was delivered.
				break
			}
			tags = append(tags, batch[i].Tag)
		}
		clear(pairs[:cap(pairs)]) // drop the tuple references
		// Count once per batch, before the ack: when Quiesce sees the
		// sink queue drained, Snapshot().Results holds every pair.
		if results > 0 {
			e.resultsN.Add(results)
		}
		if dups > 0 {
			e.resultDedup.Add(dups)
		}
		// Ack only after the results reached the application; a crash
		// before this point redelivers the pairs and the sink's dedup
		// keeps the redelivery from duplicating them. A failed ack
		// (connection lost mid-settle) leaves the deliveries to be
		// redelivered and suppressed the same way.
		_ = broker.AckBatch(cons, tags)
		clear(batch) // drop the body references
		if stopping || !open {
			return
		}
	}
}

// deliver hands one new result pair to the application. It reports
// false when the engine is shutting down and the result was not taken.
func (e *Engine) deliver(l, r *tuple.Tuple) bool {
	jr := tuple.NewJoinResult(l, r)
	// e2e latency runs from the later-ingested parent's stamp.
	// With sampled tracing usually only one parent is stamped;
	// a stamp on the older parent (event time as the tiebreak)
	// would measure window dwell, not pipeline latency — skip it.
	var stamp int64
	switch {
	case l.TraceNS != 0 && r.TraceNS != 0:
		stamp = max(l.TraceNS, r.TraceNS)
	case l.TraceNS != 0 && l.TS >= r.TS:
		stamp = l.TraceNS
	case r.TraceNS != 0 && r.TS >= l.TS:
		stamp = r.TraceNS
	}
	e.tracer.Observe(metrics.StageE2E, stamp)
	if e.cfg.OnResult != nil {
		e.cfg.OnResult(jr)
		return true
	}
	select {
	case e.results <- jr:
		return true
	case <-e.sinkStop:
		return false
	}
}

// ScaleJoiners grows or shrinks one relation's joiner group to n
// members. Growing adds members that only receive new tuples. The
// shrink path depends on the join mode: windowed joins seal removed
// members — they stop storing immediately, keep serving join probes
// while their window drains, and are retired afterwards (§3.4) — while
// full-history joins, whose window never drains, migrate the removed
// member's state live to the surviving members (see migration.go) so
// no stored tuple and no pending result is lost.
func (e *Engine) ScaleJoiners(rel tuple.Relation, n int) error {
	if n < 1 {
		return fmt.Errorf("core: joiner group must keep at least 1 member")
	}
	e.mu.Lock()
	if !e.running() {
		e.mu.Unlock()
		return errors.New("core: engine not running")
	}
	active := e.activeLocked(rel)
	if n < len(active) && e.cfg.FullHistory {
		e.mu.Unlock()
		return e.scaleInWithMigration(rel, n)
	}
	defer e.mu.Unlock()
	for i := len(active); i < n; i++ {
		if err := e.addJoinerLocked(rel); err != nil {
			return err
		}
	}
	now := e.cfg.Clock.Now()
	for _, m := range active[min(n, len(active)):] {
		m.deadline = now.Add(e.cfg.Window + 2*time.Second)
		if err := e.transitionLocked(m, memberSealed); err != nil {
			return err
		}
	}
	return e.pushLayoutsLocked(now.UnixMilli())
}

// ScaleRouters grows or shrinks the router tier to n instances.
func (e *Engine) ScaleRouters(n int) error {
	if n < 1 {
		return fmt.Errorf("core: router tier must keep at least 1 instance")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.running() {
		return errors.New("core: engine not running")
	}
	for len(e.routers) < n {
		if err := e.addRouterLocked(); err != nil {
			return err
		}
	}
	for len(e.routers) > n {
		last := e.routers[len(e.routers)-1]
		e.routers = e.routers[:len(e.routers)-1]
		// Retire broadcasts the router's tombstone behind everything it
		// already sent, so joiners unregister its frontier exactly when
		// its last envelope has been processed.
		last.Retire()
		e.cursorFloor = max(e.cursorFloor, last.StampCursor())
	}
	return nil
}

// pushLayoutsLocked propagates the current membership to every router.
func (e *Engine) pushLayoutsLocked(nowTS int64) error {
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := router.SetLayouts(e.routers, rel, e.memberIDsLocked(rel), e.subgroupsLocked(rel), nowTS); err != nil {
			return err
		}
	}
	return nil
}

// Reap retires sealed joiners whose drain deadline has passed and
// migration donors that were parked at cut-over (state safely moved,
// donor still catching up to the barrier). It runs on a ticker from
// Start, is also called from Snapshot, and may be called directly; it
// returns how many members were retired. A parked donor is checked
// outside e.mu on a copy of its incarnation and barrier, and retires
// only if it is still parked with that incarnation afterwards; one a
// cold restart replaced meanwhile waits for the next tick.
func (e *Engine) Reap() int {
	e.mu.Lock()
	now := e.cfg.Clock.Now()
	var retire []*joiner.Service
	var parked []member // copies, read outside e.mu
	for _, m := range slices.Clone(e.members) {
		switch {
		case m.state == memberSealed && now.After(m.deadline):
			retire = append(retire, m.svc)
			_ = e.transitionLocked(m, memberRetired) // sealed → retired is legal
		case m.state == memberParked:
			parked = append(parked, *m)
		}
	}
	e.mu.Unlock()
	for _, c := range parked {
		if migrate.Passed(c.svc, c.barrier) != nil {
			continue
		}
		// A record still holding c.svc is still parked: restarts never
		// change a state, and a parked record can only retire.
		e.mu.Lock()
		m := e.memberOfLocked(c.svc) // nil once a restart replaced c.svc
		retired := m != nil && e.transitionLocked(m, memberRetired) == nil
		e.mu.Unlock()
		if retired {
			retire = append(retire, c.svc)
			e.migrations.Inc()
		}
	}
	for _, svc := range retire {
		svc.Retire()
	}
	return len(retire)
}

// NumJoiners returns the active member count of one group (excluding
// sealed, draining members).
func (e *Engine) NumJoiners(rel tuple.Relation) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.activeLocked(rel))
}

// NumRouters returns the router instance count.
func (e *Engine) NumRouters() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.routers)
}

// MemberIDs returns the active member ids of one joiner group, in
// layout order. Together with Metrics it lets callers address a
// member's registry subtree ("joiner.<rel>.<id>.").
func (e *Engine) MemberIDs(rel tuple.Relation) []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.memberIDsLocked(rel)
}

// Quiesce is the engine's drain barrier: it blocks until every result
// of every tuple whose Ingest returned before the call has reached the
// application, or fails after timeout. It polls every 2ms through four
// steps:
//
//  1. The entry queue holds no ready or unacked message: every such
//     tuple is stamped, its copies published, its delivery acked. No
//     joiner lock is taken before this passes, so polling never slows
//     the routers while they still route.
//  2. It reads the barrier cursor (stampCursor): the last stamp or
//     punctuation any router issued, or a removed router's tombstone.
//  3. Every member in the table, in any state, has passed the cursor
//     (migrate.Passed): its frontier is at or past it and its result
//     backlog is empty, so every result of a tuple stamped at or below
//     the cursor is at the broker. Punctuation goes to every bound
//     joiner queue, so sealed, cut and parked members advance too.
//  4. The result queue holds no ready or unacked message: the sink acks
//     a frame only after its pairs went to OnResult or the Results
//     channel.
//
// The barrier counts nothing, so a duplicated delivery cannot stall it
// and a dead-lettered message has left its queue. Call it only when no
// publish is held outside the broker: a faults.Client must first
// release the publishes it holds back (Settle), or a tuple whose Ingest
// returned may still be unpublished when step 1 passes.
func (e *Engine) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	await := func(what string, ready func() error) error {
		for {
			err := ready()
			if err == nil {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("core: quiesce timed out after %v waiting for %s: %w", timeout, what, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := await("routing", func() error { return e.drained(topo.EntryQueue) }); err != nil {
		return err
	}
	cursor := e.stampCursor()
	if err := await("joiners", func() error { return e.passed(cursor) }); err != nil {
		return err
	}
	return await("the sink", func() error { return e.drained(sinkQueue) })
}

// drained reports whether queue holds no ready or unacked message.
func (e *Engine) drained(queue string) error {
	st, err := e.client.QueueStats(queue)
	if err == nil && st.Ready+st.Unacked > 0 {
		err = fmt.Errorf("%s holds %d ready, %d unacked", queue, st.Ready, st.Unacked)
	}
	return err
}

// passed reports whether every member in the table passed cursor.
func (e *Engine) passed(cursor uint64) error {
	e.mu.Lock()
	svcs := services(e.members)
	e.mu.Unlock()
	for _, svc := range svcs {
		if err := migrate.Passed(svc, cursor); err != nil {
			return fmt.Errorf("joiner %s-%d: %w", svc.Rel(), svc.ID(), err)
		}
	}
	return nil
}

// CrashJoiner simulates a *warm* crash/restart of one joiner member
// (for fault testing): the service stops without flushing — in-flight
// unacked deliveries requeue on its durable queues — sits dead for
// down, and restarts against the same queues. Warm means the in-memory
// core survives: the window index, ordering frontiers and dedup filter
// carry over, modeling a process restart on the same machine (or a
// supervisor's restart-in-place). Tuples delivered but unacked at the
// crash are redelivered and suppressed by the core's idempotency
// filter. Contrast ColdCrashJoiner, which models losing the machine:
// the core is discarded and state comes back only from the checkpoint
// store and broker redelivery.
func (e *Engine) CrashJoiner(rel tuple.Relation, idx int, down time.Duration) error {
	return e.restartAt(rel, idx, false, down)
}

// ColdCrashJoiner simulates losing a joiner's machine: the member's
// service stops (unacked deliveries requeue on its durable queues), its
// in-memory core — window index, ordering frontiers, dedup filter — is
// discarded entirely, and after down a fresh member with the same id is
// built, recovers whatever the engine's checkpoint provider holds for
// that id, and re-attaches to the same queues. With checkpointing
// configured the restored dedup filter and the sink's result filter
// absorb the redelivery overlap, so the join's result multiset is
// unchanged by the crash. Without a checkpoint provider the fresh core
// starts empty and every already-acknowledged stored tuple is simply
// gone — the data-loss mode the checkpoint subsystem exists to close.
// A member scaled in while it was down comes back where scale-in put it,
// never into the active group.
func (e *Engine) ColdCrashJoiner(rel tuple.Relation, idx int, down time.Duration) error {
	return e.restartAt(rel, idx, true, down)
}

// restartAt restarts the active member at layout position idx.
func (e *Engine) restartAt(rel tuple.Relation, idx int, cold bool, down time.Duration) error {
	e.mu.Lock()
	active := e.activeLocked(rel)
	if idx < 0 || idx >= len(active) {
		e.mu.Unlock()
		return fmt.Errorf("core: joiner %s[%d] out of range [0,%d)", rel, idx, len(active))
	}
	svc := active[idx].svc
	e.mu.Unlock()
	return e.restartJoiner(svc, cold, down)
}

// restartJoiner is the one joiner restart path, behind CrashJoiner,
// ColdCrashJoiner, ColdCrashDonor and the Supervisor. It finds svc's
// record by identity and refuses a retired member, stops svc and waits
// down. A warm restart starts svc again, its core intact; a cold one
// swaps a fresh incarnation with the same id into the record — same
// queues, metric names and checkpoint store, recovering what the
// provider holds. The record's state never changes. If the member
// retired while down, or another restart replaced svc, the incarnation
// started here is retired or stopped again and the restart fails.
func (e *Engine) restartJoiner(svc *joiner.Service, cold bool, down time.Duration) error {
	e.mu.Lock()
	m := e.memberOfLocked(svc)
	e.mu.Unlock()
	if m == nil {
		return fmt.Errorf("core: joiner %s-%d is retired", svc.Rel(), svc.ID())
	}
	svc.Stop()
	if down > 0 {
		time.Sleep(down)
	}
	inc := svc
	if cold {
		e.mu.Lock()
		fresh, err := e.buildJoinerLocked(m.rel, m.id)
		e.mu.Unlock()
		if err != nil {
			return err
		}
		inc = fresh
	}
	if err := restart(inc.Start); err != nil {
		return err
	}
	e.mu.Lock()
	retired, replaced := m.state == memberRetired, m.svc != svc
	if !retired && !replaced && cold {
		for _, r := range e.routers {
			inc.AddRouter(r.ID())
		}
		m.svc = inc
	}
	e.mu.Unlock()
	switch {
	case retired:
		inc.Retire()
		return fmt.Errorf("core: joiner %s-%d retired while down", m.rel, m.id)
	case replaced:
		inc.Stop()
		return fmt.Errorf("core: joiner %s-%d replaced while down", m.rel, m.id)
	}
	return nil
}

// CrashRouter simulates a crash/restart of one router instance. Entry
// tuples it held unacked requeue for its siblings (or its own restart);
// partially published fan-outs repeat on redelivery and are absorbed by
// joiner dedup.
func (e *Engine) CrashRouter(idx int, down time.Duration) error {
	e.mu.Lock()
	if idx < 0 || idx >= len(e.routers) {
		e.mu.Unlock()
		return fmt.Errorf("core: router %d out of range [0,%d)", idx, len(e.routers))
	}
	svc := e.routers[idx]
	e.mu.Unlock()
	svc.Stop()
	if down > 0 {
		time.Sleep(down)
	}
	return restart(svc.Start)
}

// Stop halts all services. Buffered envelopes are flushed through the
// joiners so no already-ingested result is silently dropped, then the
// engine's own broker (if any) is closed.
func (e *Engine) Stop() error {
	e.mu.Lock()
	if !e.running() {
		e.mu.Unlock()
		return nil
	}
	e.state.Store(engineStopped)
	routers := e.routers
	joiners := services(e.members)
	sink := e.sinkCons
	sinkDone := e.sinkDone
	obsSrv := e.obsSrv
	adapter := e.adapter
	e.mu.Unlock()

	if adapter != nil {
		// Before the routers: an in-flight key migration waits on stamp
		// cursors, which stop advancing once the routers are gone.
		adapter.Stop()
	}
	if obsSrv != nil {
		obsSrv.Close()
	}

	for _, r := range routers {
		r.Stop() // emits a final punctuation
	}
	// Give joiners a moment to consume the final punctuations, then
	// stop them and flush whatever remains.
	_ = e.Quiesce(500 * time.Millisecond)
	for _, j := range joiners {
		j.Stop()
		j.Flush() // release anything still gated by the protocol
	}
	if sink != nil {
		sink.Cancel()
		close(e.sinkStop)
		<-sinkDone
	}
	if e.results != nil {
		close(e.results)
	}
	if e.ownB != nil {
		return e.ownB.Close()
	}
	return nil
}
