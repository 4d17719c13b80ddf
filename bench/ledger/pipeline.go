package ledger

import (
	"errors"
	"fmt"
	"time"

	"bistream/bench/gen"
	"bistream/bench/ref"
	"bistream/internal/broker"
	"bistream/internal/dedup"
	"bistream/internal/joiner"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/router"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

const (
	// membersPerSide mirrors the engine topology the benchmark runs
	// (one router, 2+2 joiners).
	membersPerSide = 2
	// punctEvery is how many tuples pass between punctuations. The
	// pipeline has no wall-clock ticker; at the engines' measured rates
	// this is about the 20 ms default interval, and it sizes the joiner
	// batches the way a loaded consume loop does.
	punctEvery = 1024
	// maxBatch caps one HandleBatch call, like joiner.Service.
	maxBatch = 512
	// SinkQueue is the name core.Engine gives its result queue.
	SinkQueue = topo.ResultExchange + ".sink"
	// stallAfter bounds how long the pipeline waits for one delivery;
	// a miscounted queue fails the run instead of hanging it.
	stallAfter = 30 * time.Second
)

// Config describes one ledger run.
type Config struct {
	Workload *gen.Workload
	// Stream must hold at least Tuples tuples; the ledger replays its
	// prefix.
	Stream *gen.Stream
	Tuples int
	// Pairs is how many result pairs the oracle expects of those tuples.
	// With Tuples it sizes the span recorder, so the span slice never
	// regrows inside an open span and bills the copy to that op.
	Pairs int
	// Client is the broker the pipeline publishes to and consumes from:
	// a *broker.Broker, or a wire.Client for the wire workload. The
	// ledger declares its topology on it and must be its only user.
	Client broker.Client
	// Replays also drives the reorderer, the index and the checkpoint
	// codec alone with what the pipeline's joiners saw.
	Replays bool
}

// member is one joiner of the pipeline.
type member struct {
	rel  tuple.Relation
	core *joiner.Core
	// key, storeEx and joinEx are what the member's two queues are
	// bound by, besides the shared punctuation key.
	key, storeEx, joinEx string

	storeCons, joinCons broker.Consumer
	pendStore, pendJoin int // published, not yet consumed
	dec                 tuple.Decoder
	arrivals            []arrival // everything fed to the core, in order
}

// arrival is one envelope as a joiner core received it.
type arrival struct {
	env protocol.Envelope
	src protocol.Source
}

// pipeline is the hand-wired data path.
type pipeline struct {
	cfg     Config
	cl      broker.Client
	rec     *recorder
	pred    predicate.Predicate
	win     window.Sliding
	rtr     *router.Core
	members [2][]*member
	entry   broker.Consumer
	sink    broker.Consumer
	seen    *dedup.Set
	stall   *time.Timer

	root     []int32 // tuple index → its core.ingest span
	batch    int32   // the joiner.handle_batch span emit runs inside
	pendSink int
	envs     []protocol.Envelope
	tags     []uint64
	pairs    []uint64
	bytesIn  int64 // Σ marshaled tuple bytes
}

func newPipeline(cfg Config, rec *recorder) (*pipeline, error) {
	w := cfg.Workload
	p := &pipeline{
		cfg: cfg, cl: cfg.Client, rec: rec,
		win:  window.Sliding{Span: w.Window},
		seen: dedup.New(0), stall: time.NewTimer(stallAfter),
		root: make([]int32, cfg.Tuples),
	}
	p.pred = w.Predicate()
	if err := p.declare(); err != nil {
		return nil, err
	}
	rc := router.Config{ID: 0, Pred: p.pred, Window: p.win}
	if w.ContRand {
		hot, err := router.NewHotTracker(router.HotConfig{Window: p.win})
		if err != nil {
			return nil, err
		}
		rc.Hot = hot
	}
	var err error
	if p.rtr, err = router.NewCore(rc); err != nil {
		return nil, err
	}
	subgroups := 1
	if p.pred.Partitionable() {
		subgroups = membersPerSide
	}
	ids := make([]int32, membersPerSide)
	for i := range ids {
		ids[i] = int32(i)
	}
	nowTS := time.Now().UnixMilli()
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := p.rtr.SetLayout(rel, ids, subgroups, nowTS); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// declare builds the engine's topology on the client: the shared
// exchanges, one store and one join queue per member, and the result
// sink — the same names and bindings core.Engine and joiner.Service
// use.
func (p *pipeline) declare() error {
	cl := p.cl
	if err := topo.Declare(cl); err != nil {
		return err
	}
	durable := broker.QueueOptions{Durable: true}
	if err := cl.DeclareQueue(SinkQueue, durable); err != nil {
		return err
	}
	if err := cl.Bind(SinkQueue, topo.ResultExchange, topo.ResultKey); err != nil {
		return err
	}
	var err error
	if p.sink, err = cl.Consume(SinkQueue, maxBatch, false); err != nil {
		return err
	}
	if p.entry, err = cl.Consume(topo.EntryQueue, 64, false); err != nil {
		return err
	}
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		for id := int32(0); id < membersPerSide; id++ {
			// One shard keeps HandleBatch on the calling goroutine, so
			// the spans of this run add up; the engine's per-core shard
			// fan-out cannot be timed from outside.
			core, err := joiner.NewCore(joiner.Config{
				ID: id, Rel: rel, Pred: p.pred, Window: p.win, Shards: 1,
			})
			if err != nil {
				return err
			}
			core.AddRouter(0)
			m := &member{
				rel: rel, core: core, key: topo.MemberKey(id),
				storeEx: topo.StoreExchange(rel), joinEx: topo.JoinExchange(rel.Opposite()),
			}
			storeQ, joinQ := topo.StoreQueue(rel, id), topo.JoinQueue(rel, id)
			for _, b := range []struct{ queue, exchange, key string }{
				{storeQ, m.storeEx, m.key},
				{storeQ, m.storeEx, topo.PunctKey},
				{joinQ, m.joinEx, m.key},
				{joinQ, m.joinEx, topo.PunctKey},
			} {
				if err := cl.DeclareQueue(b.queue, durable); err != nil {
					return err
				}
				if err := cl.Bind(b.queue, b.exchange, b.key); err != nil {
					return err
				}
			}
			if m.storeCons, err = cl.Consume(storeQ, 2*maxBatch, false); err != nil {
				return err
			}
			if m.joinCons, err = cl.Consume(joinQ, 2*maxBatch, false); err != nil {
				return err
			}
			p.members[rel] = append(p.members[rel], m)
		}
	}
	return nil
}

// cancel detaches every consumer the pipeline attached.
func (p *pipeline) cancel() {
	for _, c := range []broker.Consumer{p.entry, p.sink} {
		if c != nil {
			c.Cancel()
		}
	}
	for _, ms := range p.members {
		for _, m := range ms {
			if m.storeCons != nil {
				m.storeCons.Cancel()
			}
			if m.joinCons != nil {
				m.joinCons.Cancel()
			}
		}
	}
	p.stall.Stop()
}

var errStalled = errors.New("ledger: no delivery arrived (queue accounting is off)")

// receive takes the next delivery of a consumer.
func (p *pipeline) receive(c broker.Consumer) (broker.Delivery, error) {
	select {
	case d, ok := <-c.Deliveries():
		if !ok {
			return d, errors.New("ledger: consumer closed")
		}
		return d, nil
	case <-p.stall.C:
		return broker.Delivery{}, errStalled
	}
}

// run pushes the stream's first Tuples tuples through the pipeline.
func (p *pipeline) run() error {
	st := p.cfg.Stream
	for i := 0; i < p.cfg.Tuples; i++ {
		if err := p.ingest(i, st.Tuple(i)); err != nil {
			return err
		}
		if err := p.route(i); err != nil {
			return err
		}
		if (i+1)%punctEvery == 0 || i == p.cfg.Tuples-1 {
			if err := p.punctuate(i); err != nil {
				return err
			}
			if err := p.drainAll(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ingest is Engine.Ingest's work: marshal and publish to the entry
// exchange.
func (p *pipeline) ingest(i int, t *tuple.Tuple) error {
	rec := p.rec
	root := rec.begin(OpIngest, t.Seq, -1)
	p.root[i] = root
	s := rec.begin(OpTupleMarshal, t.Seq, root)
	body := tuple.Marshal(t)
	rec.end(s)
	s = rec.begin(OpPublishEntry, t.Seq, root)
	err := p.cl.Publish(topo.EntryExchange, topo.EntryKey, nil, body)
	rec.end(s)
	rec.end(root)
	p.bytesIn += int64(len(body))
	return err
}

// route is router.Service.routeLoop's work for one entry delivery.
func (p *pipeline) route(i int) error {
	rec, seq := p.rec, uint64(i+1)
	wait := rec.begin(OpConsumeEntry, seq, p.root[i])
	d, err := p.receive(p.entry)
	rec.end(wait)
	if err != nil {
		return err
	}
	s := rec.begin(OpTupleDecode, seq, wait)
	t, err := tuple.Unmarshal(d.Body)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin(OpRoute, seq, wait)
	dests, err := p.rtr.Route(t, time.Now())
	rec.end(s)
	if err != nil {
		return err
	}
	if err := p.publish(dests, OpPublishFanout, seq, wait); err != nil {
		return err
	}
	s = rec.begin(OpConsumeEntry, seq, wait)
	err = p.entry.Ack(d.Tag)
	rec.endN(s, 0)
	return err
}

// publish marshals and publishes a router's destinations, and counts
// what each member queue now has to deliver.
func (p *pipeline) publish(dests []router.Destination, op Op, trace uint64, parent int32) error {
	rec := p.rec
	for _, dst := range dests {
		s := rec.begin(OpEnvelopeMarshal, trace, parent)
		body := dst.Env.Marshal()
		rec.end(s)
		s = rec.begin(op, trace, parent)
		err := p.cl.Publish(dst.Exchange, dst.Key, nil, body)
		rec.end(s)
		if err != nil {
			return err
		}
		p.expect(dst)
	}
	return nil
}

// expect does the queue accounting for one published destination: the
// pipeline consumes exactly what it published, so it can block on each
// delivery instead of polling.
func (p *pipeline) expect(dst router.Destination) {
	for _, ms := range p.members {
		for _, m := range ms {
			if dst.Key != topo.PunctKey && dst.Key != m.key {
				continue
			}
			switch dst.Exchange {
			case m.storeEx:
				m.pendStore++
			case m.joinEx:
				m.pendJoin++
			}
		}
	}
}

func (p *pipeline) punctuate(i int) error {
	p.stall.Reset(stallAfter) // one watchdog period per punctuation round
	return p.publish(p.rtr.Punctuate(), OpPublishPunct, uint64(i+1), p.root[i])
}

// drainAll consumes everything published so far: every member's store
// then join queue, then the result queue.
func (p *pipeline) drainAll() error {
	for _, ms := range p.members {
		for _, m := range ms {
			if err := p.drain(m, m.storeCons, protocol.SourceStore, &m.pendStore); err != nil {
				return err
			}
			if err := p.drain(m, m.joinCons, protocol.SourceJoin, &m.pendJoin); err != nil {
				return err
			}
		}
	}
	return p.drainSink()
}

// batchAcker is the batch-settle fast path the in-process consumer
// offers (joiner.Service uses it the same way).
type batchAcker interface {
	AckBatch(tags []uint64) error
}

// drain is joiner.Service.consumeLoop's work for one queue: gather a
// batch, decode it, hand it to the core, settle it.
func (p *pipeline) drain(m *member, cons broker.Consumer, src protocol.Source, pending *int) error {
	rec := p.rec
	for *pending > 0 {
		n := min(*pending, maxBatch)
		*pending -= n
		p.envs, p.tags = p.envs[:0], p.tags[:0]
		wait := rec.begin(OpConsumeMember, 0, -1)
		bodies := make([][]byte, 0, n)
		for len(bodies) < n {
			d, err := p.receive(cons)
			if err != nil {
				return err
			}
			bodies = append(bodies, d.Body)
			p.tags = append(p.tags, d.Tag)
		}
		rec.endN(wait, n)
		for _, body := range bodies {
			s := rec.begin(OpEnvelopeDecode, 0, wait)
			env, err := protocol.DecodeEnvelope(body, &m.dec)
			rec.end(s)
			if err != nil {
				return err
			}
			if env.Tuple != nil {
				rec.spans[s].Trace = env.Tuple.Seq
				if rec.spans[wait].Trace == 0 {
					rec.spans[wait].Trace = env.Tuple.Seq
				}
			}
			p.envs = append(p.envs, env)
		}
		if p.cfg.Replays {
			for _, env := range p.envs {
				m.arrivals = append(m.arrivals, arrival{env, src})
			}
		}
		p.batch = rec.begin(OpHandleBatch, rec.spans[wait].Trace, wait)
		m.core.HandleBatch(p.envs, src, p.emit)
		rec.endN(p.batch, len(p.envs))
		s := rec.begin(OpConsumeMember, rec.spans[wait].Trace, wait)
		var err error
		if ba, ok := cons.(batchAcker); ok {
			err = ba.AckBatch(p.tags)
		} else {
			for _, tag := range p.tags {
				if err = cons.Ack(tag); err != nil {
					break
				}
			}
		}
		rec.endN(s, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// emit is joiner.Service.emit's work: encode the pair and publish it.
func (p *pipeline) emit(jr tuple.JoinResult) {
	rec := p.rec
	trace := max(jr.Left.Seq, jr.Right.Seq)
	s := rec.begin(OpPairMarshal, trace, p.batch)
	body := tuple.AppendBinary(tuple.Marshal(jr.Left), jr.Right)
	rec.end(s)
	s = rec.begin(OpPublishResult, trace, p.batch)
	err := p.cl.Publish(topo.ResultExchange, topo.ResultKey, nil, body)
	rec.end(s)
	if err == nil {
		p.pendSink++
	}
}

// drainSink is core.Engine.sinkLoop's work: decode each pair, dedup it,
// hand it over, ack it.
func (p *pipeline) drainSink() error {
	rec := p.rec
	for ; p.pendSink > 0; p.pendSink-- {
		wait := rec.begin(OpConsumeSink, 0, -1)
		d, err := p.receive(p.sink)
		rec.end(wait)
		if err != nil {
			return err
		}
		s := rec.begin(OpPairUnmarshal, 0, wait)
		l, r, err := tuple.UnmarshalPair(d.Body)
		rec.end(s)
		if err != nil {
			return err
		}
		trace := max(l.Seq, r.Seq)
		rec.spans[wait].Trace, rec.spans[s].Trace = trace, trace
		s = rec.begin(OpDedup, trace, wait)
		dup := p.seen.SeenOrAdd(dedup.Key{l.Seq, r.Seq})
		rec.end(s)
		if !dup {
			jr := tuple.NewJoinResult(l, r)
			p.pairs = append(p.pairs, ref.PairKey(jr.Left.Seq, jr.Right.Seq))
		}
		s = rec.begin(OpConsumeSink, trace, wait)
		err = p.sink.Ack(d.Tag)
		rec.endN(s, 0)
		if err != nil {
			return fmt.Errorf("ledger: sink ack: %w", err)
		}
	}
	return nil
}
