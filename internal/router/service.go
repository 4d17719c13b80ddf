package router

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"bistream/internal/broker"
	"bistream/internal/metrics"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/vclock"
)

// Service connects a router core to the broker: it competes with its
// sibling router instances for raw tuples on the entry queue, fans each
// out through the core, and emits punctuation signals periodically.
//
// Consumption is manual-ack: an entry tuple is acknowledged only after
// every copy of its fan-out was published, so a router crash mid-fanout
// requeues the tuple for a sibling (or a restart) instead of losing it.
// The partially published copies become duplicates on redelivery; the
// joiners' idempotency filter absorbs them.
type Service struct {
	core   *Core
	client broker.Client
	clock  vclock.Clock
	punct  time.Duration

	mu       sync.Mutex
	coreMu   sync.Mutex // serializes access to the (non-thread-safe) core
	cons     broker.Consumer
	stopCh   chan struct{}
	doneCh   chan struct{}
	puncDone chan struct{}
	started  bool

	redelivered   *metrics.Counter
	publishErrors *metrics.Counter
	ackErrors     *metrics.Counter
	poison        *metrics.Counter
}

// ServiceConfig configures a router service.
type ServiceConfig struct {
	// PunctuationInterval is how often the router broadcasts punctuation
	// signals; the text suggests every 20ms.
	PunctuationInterval time.Duration
}

// DefaultPunctuationInterval mirrors the 20ms suggestion of §3.3.
const DefaultPunctuationInterval = 20 * time.Millisecond

// publishRetryDelay spaces redeliveries after a failed fan-out publish
// or a not-yet-installed layout: the nacked tuple returns to the queue
// head, and without a pause the consume loop would spin through the
// redelivery bound during a broker outage.
const publishRetryDelay = 5 * time.Millisecond

// maxRouteBatch caps how many entry deliveries one routeLoop wakeup
// stamps and publishes under a single coreMu hold. The batch is whatever
// already queued up, so it adds no waiting; the cap bounds how long a
// punctuation (or a layout change) can wait behind it — a hundred-odd
// tuples route in well under the punctuation interval. The entry
// prefetch is twice the cap, so the broker refills the delivery channel
// while a full batch is being routed.
const maxRouteBatch = 128

// NewService wraps core with a broker-backed service. clock defaults to
// the wall clock.
func NewService(core *Core, client broker.Client, clock vclock.Clock, cfg ServiceConfig) *Service {
	if clock == nil {
		clock = vclock.Real{}
	}
	if cfg.PunctuationInterval <= 0 {
		cfg.PunctuationInterval = DefaultPunctuationInterval
	}
	reg, prefix := core.cfg.Metrics, core.prefix
	return &Service{
		core:          core,
		client:        client,
		clock:         clock,
		punct:         cfg.PunctuationInterval,
		redelivered:   reg.Counter(prefix + "redelivered"),
		publishErrors: reg.Counter(prefix + "publish_errors"),
		ackErrors:     reg.Counter(prefix + "ack_errors"),
		poison:        reg.Counter(prefix + "poison"),
	}
}

// Start declares topology, attaches to the entry queue and launches the
// routing and punctuation loops. A stopped service can be started
// again.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("router: service already started")
	}
	if err := topo.Declare(s.client); err != nil {
		return err
	}
	cons, err := s.client.Consume(topo.EntryQueue, 2*maxRouteBatch, false)
	if err != nil {
		return err
	}
	s.cons = cons
	s.stopCh = make(chan struct{})
	s.doneCh = make(chan struct{})
	s.puncDone = make(chan struct{})
	s.started = true
	go s.routeLoop(cons, s.stopCh, s.doneCh)
	go s.punctuationLoop(s.stopCh, s.puncDone)
	return nil
}

// Stop cancels consumption and halts the loops. It emits one final
// punctuation so joiners can release everything already sent.
func (s *Service) Stop() { s.stop(false) }

// Retire stops the service and broadcasts the router's tombstone, which
// unregisters it from every joiner's frontier table (scale-in).
func (s *Service) Retire() { s.stop(true) }

func (s *Service) stop(retire bool) {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	close(s.stopCh)
	cons := s.cons
	doneCh, puncDone := s.doneCh, s.puncDone
	s.mu.Unlock()
	// The route loop first: it settles the batch it is on, so cancelling
	// the consumer requeues only deliveries that were never routed and an
	// orderly stop routes no tuple twice.
	<-doneCh
	cons.Cancel()
	<-puncDone
	if retire {
		s.coreMu.Lock()
		dests := s.core.Retire()
		s.coreMu.Unlock()
		s.publishSignal(dests)
		// A retired router's series would otherwise linger frozen in
		// every future scrape; drop its registry subtree.
		s.core.cfg.Metrics.UnregisterPrefix(s.core.prefix)
		return
	}
	s.publishPunctuation()
}

// ID returns the router's protocol id.
func (s *Service) ID() int32 { return s.core.ID() }

// SetLayout forwards a layout change to the core, serialized against
// the routing loop.
func (s *Service) SetLayout(rel tuple.Relation, members []int32, subgroups int, nowTS int64) error {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	return s.core.SetLayout(rel, members, subgroups, nowTS)
}

// CopyLayouts gives the service a deep copy of from's layout tables
// (Core.CopyLayouts), read under from's core lock. Call it before Start.
func (s *Service) CopyLayouts(from *Service) {
	from.coreMu.Lock()
	defer from.coreMu.Unlock()
	s.core.CopyLayouts(from.core)
}

// SetLayouts installs one relation's layout on every router of an
// engine as a single step of the stamp order: with every router's core
// held, the stampers are first advanced to the highest stamp any of
// them has issued, so each tuple stamped after the change carries a
// higher stamp than each tuple stamped before it, whichever routers
// stamped them. Join-cover depends on it: a tuple stored under the new
// layout is then only ever probed for by higher-stamped tuples, and
// those fan out under the new layout too. Installed router by router,
// a store under the new layout on one router could be followed by a
// higher-stamped probe still fanned out under the old layout on
// another, which misses the member that stored it — the pair is lost.
func SetLayouts(svcs []*Service, rel tuple.Relation, members []int32, subgroups int, nowTS int64) error {
	var high uint64
	for _, s := range svcs {
		s.coreMu.Lock()
		defer s.coreMu.Unlock()
		high = max(high, s.core.StampCursor())
	}
	for _, s := range svcs {
		s.core.stamper.Advance(high)
		if err := s.core.SetLayout(rel, members, subgroups, nowTS); err != nil {
			return err
		}
	}
	return nil
}

// RetireMember forwards a dead-member mark to the core, serialized
// against the routing loop: once it returns, no future fan-out of this
// router targets the member.
func (s *Service) RetireMember(rel tuple.Relation, id int32) {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	s.core.RetireMember(rel, id)
}

// StampCursor reads the core stamper's cursor under coreMu, so every
// stamp at or below the returned value has been published (stamping and
// publishing are one atomic step in the route loop).
func (s *Service) StampCursor() uint64 {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	return s.core.StampCursor()
}

// Stats snapshots the core's counters, serialized against the routing
// loop.
func (s *Service) Stats() Stats {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	return s.core.Stats()
}

// routeLoop drains the entry queue in batches: block for one delivery,
// gather whatever else is already queued (up to maxRouteBatch), and
// route the lot. It returns between batches once stop closes, or when
// the consumer is cancelled under it.
func (s *Service) routeLoop(cons broker.Consumer, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var (
		rb    routeBatch
		batch = make([]broker.Delivery, 0, maxRouteBatch)
		ch    = cons.Deliveries()
	)
	for open := true; open; {
		select {
		case <-stop:
			return
		case d, ok := <-ch:
			if !ok {
				return
			}
			batch, open = broker.Drain(ch, d, batch)
			if !s.route(cons, batch, &rb) {
				s.pause(stop)
			}
			clear(batch) // drop the body references
		}
	}
}

// routeBatch is routeLoop's scratch, reused across batches.
type routeBatch struct {
	dec    tuple.Decoder
	tuples []*tuple.Tuple
	tags   []uint64      // tags[i] is tuples[i]'s delivery
	dests  []Destination // one tuple's destinations
	// frames holds one frame per destination queue the batch addresses,
	// in order of first appearance; a frame's buffer outlives the batch
	// and is reused by whichever queue takes its slot next time.
	frames []frame
	byDest map[destKey]int // index into frames
	pubs   []broker.Publication
	firsts []int // firsts[i] is pubs[i]'s frame's first tuple
}

// frame is one destination queue's run of envelopes in a route batch.
type frame struct {
	exchange, key string
	join          bool
	first         int // index into tuples of the frame's first tuple
	buf           []byte
}

type destKey struct{ exchange, key string }

// frameFor returns d's frame, opening it — with tuple first as its
// first entry's tuple — if the batch has not addressed d's queue yet.
func (rb *routeBatch) frameFor(d *Destination, join bool, first int) *frame {
	k := destKey{d.Exchange, d.Key}
	if i, ok := rb.byDest[k]; ok {
		return &rb.frames[i]
	}
	if rb.byDest == nil {
		rb.byDest = make(map[destKey]int)
	}
	rb.byDest[k] = len(rb.frames)
	rb.frames = slices.Grow(rb.frames, 1)[:len(rb.frames)+1]
	f := &rb.frames[len(rb.frames)-1]
	f.exchange, f.key, f.join, f.first = d.Exchange, d.Key, join, first
	f.buf = protocol.AppendFrameHeader(f.buf[:0], d.Env.RouterID)
	return f
}

// seal appends the batch's frames to pubs as publications, every store
// frame before every join frame, each body a copy of exactly its
// frame: the broker keeps it for as long as the message lives, while
// the frame's buffer is reused next batch.
func (rb *routeBatch) seal() {
	for _, join := range []bool{false, true} {
		for i := range rb.frames {
			if f := &rb.frames[i]; f.join == join {
				rb.pubs = append(rb.pubs, broker.Publication{
					Exchange: f.exchange, RoutingKey: f.key, Body: bytes.Clone(f.buf)})
				rb.firsts = append(rb.firsts, f.first)
			}
		}
	}
}

// route stamps and publishes one batch of entry deliveries, in arrival
// order, and settles them. It reports whether the whole batch went out.
//
// Stamping and publishing are one atomic step under coreMu: a
// punctuation carrying value P promises that every tuple stamped <= P
// has already been published (pairwise FIFO then delivers it first), so
// neither a stamp nor its publish may interleave with a punctuation
// publish. The batch's envelopes travel as frames, one broker message
// per destination queue, each holding that queue's envelopes in stamp
// order, so every destination queue receives them in stamp order.
//
// Every store frame is published before every join frame. A batch
// publish lands a prefix of its publications, so a join copy that
// landed always has its store copy landed under the same stamp. Were a
// join copy to land alone, the tuple would be probed under its first
// stamp and stored only on the retry under a second; the joiner drops
// the second probe as a redelivery, so a partner stamped between the
// two would never be joined with it.
//
// Failure handling: a delivery is acknowledged only after every copy of
// its fan-out was published. When a publish fails mid-batch (or no
// layout is installed yet), done is the smallest first tuple of any
// unpublished frame: every tuple before it had all its frames
// published and is acknowledged; that tuple and every later one are
// nack-requeued in arrival order and retried — by this router, a
// sibling, or a restart. Their unpublished envelopes are dropped, never
// sent later: the retry stamps them afresh, the burned stamps stay gaps
// (the joiners' reorder buffers release by frontier, not by
// contiguity), and copies of them that did land repeat under the new
// stamp for joiner dedup to suppress. The coarsest case is a replicated
// broker's commit gate failing: the whole batch was enqueued but none
// of it is confirmed, PublishBatch reports zero, and up to
// maxRouteBatch tuples repeat in full — at-least-once at batch
// granularity. The broker dead-letters a tuple that exhausts the entry
// queue's redelivery bound.
func (s *Service) route(cons broker.Consumer, batch []broker.Delivery, rb *routeBatch) bool {
	rb.tuples, rb.tags = rb.tuples[:0], rb.tags[:0]
	for i := range batch {
		d := &batch[i]
		if d.Redelivered {
			s.redelivered.Inc()
		}
		t, err := rb.dec.Unmarshal(d.Body)
		if err != nil {
			s.poison.Inc()
			if err := cons.Nack(d.Tag, false); err != nil { // dead-letter
				s.ackErrors.Inc()
			}
			continue
		}
		if s.core.cfg.StampIngest && t.TraceNS == 0 {
			t.TraceNS = s.core.cfg.Trace.Stamp()
		}
		rb.tuples = append(rb.tuples, t)
		rb.tags = append(rb.tags, d.Tag)
	}

	rb.frames, rb.pubs, rb.firsts = rb.frames[:0], rb.pubs[:0], rb.firsts[:0]
	clear(rb.byDest)
	s.coreMu.Lock()
	now := s.clock.Now()
	routed := 0
	for _, t := range rb.tuples {
		dests, err := s.core.appendRoute(rb.dests[:0], t, now)
		if err != nil {
			break // no layout installed yet: this tuple and the rest wait
		}
		for i := range dests {
			d := &dests[i]
			f := rb.frameFor(d, i > 0, routed)
			f.buf = protocol.AppendFrameEntry(f.buf, d.Env.Counter, d.Env.Stream, t)
		}
		rb.dests = dests
		routed++
	}
	rb.seal()
	published, err := broker.PublishBatch(context.Background(), s.client, rb.pubs)
	s.coreMu.Unlock()
	if err != nil {
		s.publishErrors.Inc()
	}
	clear(rb.tuples)
	clear(rb.dests[:cap(rb.dests)])
	clear(rb.pubs)

	done := routed // tuples whose every copy was published
	for _, first := range rb.firsts[published:] {
		done = min(done, first)
	}
	if err := broker.AckBatch(cons, rb.tags[:done]); err != nil {
		s.ackErrors.Inc()
	}
	// Newest first: each requeue goes to the queue head, so the oldest
	// ends up in front and the redelivery order is the arrival order.
	for i := len(rb.tags) - 1; i >= done; i-- {
		if err := cons.Nack(rb.tags[i], true); err != nil {
			s.ackErrors.Inc()
		}
	}
	return done == len(rb.tags)
}

// publishSignal publishes a punctuation's or tombstone's destinations.
func (s *Service) publishSignal(dests []Destination) {
	pubs := make([]broker.Publication, len(dests))
	for i := range dests {
		pubs[i] = broker.Publication{
			Exchange: dests[i].Exchange, RoutingKey: dests[i].Key, Body: dests[i].Env.Marshal()}
	}
	if _, err := broker.PublishBatch(context.Background(), s.client, pubs); err != nil {
		s.publishErrors.Inc()
	}
}

// pause sleeps publishRetryDelay or until stop closes.
func (s *Service) pause(stop <-chan struct{}) {
	select {
	case <-stop:
	case <-time.After(publishRetryDelay):
	}
}

// punctuationLoop paces punctuation on the wall clock even when the
// engine runs under a simulated clock: the cadence bounds result
// latency but does not affect correctness or the experiments' virtual
// time, and a simulated clock only advances when its driver says so,
// which would starve the protocol.
func (s *Service) punctuationLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-time.After(s.punct):
			s.publishPunctuation()
		}
	}
}

// publishPunctuation holds coreMu across the signal's computation and
// publish; see route for why. A failed punctuation publish is
// counted but not retried: punctuation is periodic and idempotent
// (frontiers are max-merged), so the next tick repairs the gap.
func (s *Service) publishPunctuation() {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	s.publishSignal(s.core.Punctuate())
}
