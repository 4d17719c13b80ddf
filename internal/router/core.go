package router

import (
	"fmt"
	"slices"
	"time"

	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// Destination is one broker publish the router must perform for a
// routed tuple or punctuation.
type Destination struct {
	Exchange string
	Key      string
	Env      protocol.Envelope
}

// Config configures a router core.
type Config struct {
	// ID identifies this router instance in the ordering protocol.
	ID int32
	// Pred is the join predicate; its partitionability selects the
	// routing strategy (§3.2).
	Pred predicate.Predicate
	// Window is the sliding window, needed to know when retired layouts
	// have drained.
	Window window.Sliding
	// Hot enables frequency-aware (ContRand) routing for partitionable
	// predicates: hot keys scatter stores and broadcast probes, cold
	// keys keep one-copy hash routing. The tracker must be shared by
	// every router of the engine so decisions agree.
	Hot *HotTracker
	// Metrics is the registry the router's instruments live in under
	// "router.<id>."; nil creates a private registry (counters still
	// work, nothing is exported).
	Metrics *metrics.Registry
	// Trace folds sampled per-tuple stage timings into the shared stage
	// histograms; nil disables tracing at this tier.
	Trace *metrics.Tracer
	// StampIngest makes this router the tracing ingest edge: unstamped
	// tuples get a sampled trace stamp on arrival. Standalone routerd
	// sets it (sources publish raw tuples); the in-process engine leaves
	// it off because Engine.Ingest already stamps ahead of the entry
	// queue.
	StampIngest bool
}

// Stats is a snapshot of a router's counters, the "statistics related
// to input data" §3.1.1 assigns to the router service.
type Stats struct {
	TuplesRouted int64   // tuples ingested and fanned out
	MsgsOut      int64   // envelopes published (store + join + punct)
	JoinFanout   int64   // join-stream copies published
	InputRate    float64 // smoothed tuples/s
}

// Core is the synchronous routing logic, shared by the broker-backed
// service and by tests. It is not safe for concurrent use; Service
// serializes access.
type Core struct {
	cfg     Config
	prefix  string // registry name prefix, "router.<id>."
	stamper *protocol.Stamper
	groups  [2]*Group // indexed by tuple.Relation

	// Broker names a routed tuple's destinations carry, built once: the
	// exchanges per relation at NewCore, a member's routing key when a
	// layout first names it.
	storeEx, joinEx [2]string
	memberKeys      map[int32]string

	tuplesRouted *metrics.Counter
	msgsOut      *metrics.Counter
	joinFanout   *metrics.Counter
	meter        *metrics.Meter
}

// MetricsPrefix returns the router's registry name prefix.
func (c *Core) MetricsPrefix() string { return c.prefix }

// NewCore builds a router core. Layouts must be installed with
// SetLayout before routing.
func NewCore(cfg Config) (*Core, error) {
	if cfg.Pred == nil {
		return nil, fmt.Errorf("router: predicate is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	prefix := fmt.Sprintf("router.%d.", cfg.ID)
	// An unbounded window (full-history join) is allowed: retired
	// layout generations then simply never drain.
	return &Core{
		cfg:          cfg,
		prefix:       prefix,
		stamper:      protocol.NewStamper(cfg.ID),
		groups:       [2]*Group{NewGroup(cfg.Window), NewGroup(cfg.Window)},
		storeEx:      [2]string{tuple.R: topo.StoreExchange(tuple.R), tuple.S: topo.StoreExchange(tuple.S)},
		joinEx:       [2]string{tuple.R: topo.JoinExchange(tuple.R), tuple.S: topo.JoinExchange(tuple.S)},
		memberKeys:   make(map[int32]string),
		tuplesRouted: cfg.Metrics.Counter(prefix + "routed"),
		msgsOut:      cfg.Metrics.Counter(prefix + "msgs_out"),
		joinFanout:   cfg.Metrics.Counter(prefix + "join_fanout"),
		meter:        cfg.Metrics.Meter(prefix+"input_rate", 5*time.Second),
	}, nil
}

// ID returns the router's protocol id.
func (c *Core) ID() int32 { return c.cfg.ID }

// SetLayout installs the joiner layout for one relation's group.
// subgroups follows §3.2: 1 for the random strategy (high-selectivity
// predicates), len(members) for pure hash partitioning (equi-joins),
// anything between for the subgroup hybrid. Non-partitionable
// predicates require subgroups == 1.
func (c *Core) SetLayout(rel tuple.Relation, members []int32, subgroups int, nowTS int64) error {
	if subgroups != 1 && !c.cfg.Pred.Partitionable() {
		return fmt.Errorf("router: predicate %v is not partitionable; use subgroups=1", c.cfg.Pred)
	}
	if err := c.groups[rel].SetLayout(members, subgroups, nowTS); err != nil {
		return err
	}
	c.addMemberKeys(members)
	return nil
}

// CopyLayouts replaces both relations' layout tables with deep copies of
// from's: every generation still draining, its retirement time, and the
// dead set, with fresh round-robin cursors. A router joining a running
// tier copies a peer this way, so its join fan-out covers the same
// memberships as the veterans'. The copy shares no state with from.
func (c *Core) CopyLayouts(from *Core) {
	for rel, g := range from.groups {
		c.groups[rel] = g.clone()
		for _, gen := range g.gens {
			c.addMemberKeys(gen.members)
		}
	}
}

// addMemberKeys builds the routing keys of members the core has not
// named yet.
func (c *Core) addMemberKeys(members []int32) {
	for _, m := range members {
		if _, ok := c.memberKeys[m]; !ok {
			c.memberKeys[m] = topo.MemberKey(m)
		}
	}
}

// Members returns the current layout of one relation's group.
func (c *Core) Members(rel tuple.Relation) []int32 { return c.groups[rel].Members() }

// RetireMember marks a migrated-away joiner dead in one relation's
// group: it keeps its slot in draining generations (subgroup geometry
// is positional) but stops receiving join fan-out. Call only after its
// state has been grafted onto the current layout's survivors.
func (c *Core) RetireMember(rel tuple.Relation, id int32) { c.groups[rel].MarkDead(id) }

// StampCursor returns the stamper's last issued counter. Because the
// service stamps and publishes as one atomic step, every tuple stamped
// at or below the cursor has already been handed to the broker — the
// property migration's drain barriers are built on.
func (c *Core) StampCursor() uint64 { return c.stamper.Current() }

// Route stamps the tuple and computes its destinations: exactly one
// store copy on the tuple's own side and one join copy per opposite
// joiner that may hold matches. now is the current (virtual) time used
// for rate tracking and layout pruning.
func (c *Core) Route(t *tuple.Tuple, now time.Time) ([]Destination, error) {
	return c.appendRoute(nil, t, now)
}

// appendRoute is Route appending the destinations to dst, so the route
// loop can reuse one slice across a batch: the store copy first, then
// the join copies.
func (c *Core) appendRoute(dst []Destination, t *tuple.Tuple, now time.Time) ([]Destination, error) {
	part := c.cfg.Pred.Partitionable()
	nowTS := now.UnixMilli()
	var hash, stamp uint64
	storePart, joinPart := part, part
	if part {
		attr := c.cfg.Pred.IndexAttr(t.Rel)
		hash = t.Value(attr).Hash()
	}
	tracked := part && c.cfg.Hot != nil
	if tracked {
		// The tracker draws the stamp with its decision, so a key's
		// promotion falls at one point of every router's stamp order.
		var storeHot, joinHot bool
		storeHot, joinHot, stamp = c.cfg.Hot.ObserveStamp(hash, nowTS, c.stamper)
		storePart = !storeHot
		joinPart = !joinHot
	}
	storeMember, err := c.groups[t.Rel].StoreTarget(hash, storePart, nowTS)
	if err != nil {
		return dst, err
	}
	joinMembers, err := c.groups[t.Rel.Opposite()].JoinTargets(hash, joinPart, nowTS)
	if err != nil {
		return dst, err
	}
	if !tracked {
		stamp = c.stamper.Next()
	}
	env := protocol.Envelope{
		Kind: protocol.KindTuple, RouterID: c.cfg.ID, Counter: stamp,
		Stream: protocol.StreamStore, Tuple: t,
	}
	dst = slices.Grow(dst, 1+len(joinMembers))
	dst = append(dst, Destination{Exchange: c.storeEx[t.Rel], Key: c.memberKeys[storeMember], Env: env})
	env.Stream = protocol.StreamJoin
	for _, m := range joinMembers {
		dst = append(dst, Destination{Exchange: c.joinEx[t.Rel], Key: c.memberKeys[m], Env: env})
	}
	c.tuplesRouted.Inc()
	c.msgsOut.Add(int64(1 + len(joinMembers)))
	c.joinFanout.Add(int64(len(joinMembers)))
	c.meter.Observe(now, 1)
	c.cfg.Trace.Observe(metrics.StageRoute, t.TraceNS)
	return dst, nil
}

// Punctuate emits the periodic punctuation signal (§3.3) to every
// joiner queue: one publish per relation per exchange under the shared
// punct binding key.
func (c *Core) Punctuate() []Destination {
	env := protocol.Envelope{
		Kind:     protocol.KindPunctuation,
		RouterID: c.cfg.ID,
		Counter:  c.stamper.Punctuation(),
	}
	return c.broadcast(env)
}

// Retire emits the router's tombstone to every joiner queue: it acts as
// a final punctuation and unregisters this router from each joiner's
// frontier table, so a scaled-in router can never stall the protocol.
func (c *Core) Retire() []Destination {
	env := protocol.Envelope{
		Kind:     protocol.KindRetire,
		RouterID: c.cfg.ID,
		Counter:  c.stamper.Punctuation(),
	}
	return c.broadcast(env)
}

// broadcast addresses a signal to every joiner queue: one publish per
// relation per exchange under the shared punct binding key.
func (c *Core) broadcast(env protocol.Envelope) []Destination {
	dests := []Destination{
		{Exchange: c.storeEx[tuple.R], Key: topo.PunctKey, Env: env},
		{Exchange: c.storeEx[tuple.S], Key: topo.PunctKey, Env: env},
		{Exchange: c.joinEx[tuple.R], Key: topo.PunctKey, Env: env},
		{Exchange: c.joinEx[tuple.S], Key: topo.PunctKey, Env: env},
	}
	c.msgsOut.Add(int64(len(dests)))
	return dests
}

// Stats snapshots the router's counters.
func (c *Core) Stats() Stats {
	return Stats{
		TuplesRouted: c.tuplesRouted.Value(),
		MsgsOut:      c.msgsOut.Value(),
		JoinFanout:   c.joinFanout.Value(),
		InputRate:    c.meter.Rate(),
	}
}
