// Package broker implements the AMQ messaging model the system's
// services communicate through: named exchanges (direct, topic, fanout),
// message queues, bindings with routing-key patterns, competing
// consumers with acknowledgements and redelivery, and per-queue
// statistics.
//
// It is the in-process substitute for the RabbitMQ broker of the
// original deployment. The properties the join engine relies on are
// preserved by construction:
//
//   - a queue delivers messages to each of its consumers in FIFO order
//     (pairwise FIFO, Definition 8 of the source text);
//   - a queue with several consumers in the same group load-balances
//     messages between them (the "queuing" model);
//   - several queues bound to one exchange each receive every matching
//     message (the "publish-subscribe" model).
//
// The sibling package internal/wire exposes the same broker over TCP so
// the router and joiner services can run as separate OS processes.
package broker

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistream/internal/vclock"
)

// ExchangeKind selects the routing discipline of an exchange.
type ExchangeKind uint8

// Exchange kinds of the AMQ model.
const (
	Direct ExchangeKind = iota // routing key compared for equality
	Topic                      // dot-separated pattern with * and # wildcards
	Fanout                     // every bound queue receives every message
)

// String names the kind as RabbitMQ does.
func (k ExchangeKind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Topic:
		return "topic"
	case Fanout:
		return "fanout"
	default:
		return "unknown"
	}
}

// Errors reported by broker operations.
var (
	ErrClosed          = errors.New("broker: closed")
	ErrNoExchange      = errors.New("broker: no such exchange")
	ErrNoQueue         = errors.New("broker: no such queue")
	ErrExchangeExists  = errors.New("broker: exchange exists with different kind")
	ErrQueueExists     = errors.New("broker: queue exists with different options")
	ErrConsumerClosed  = errors.New("broker: consumer cancelled")
	ErrUnknownDelivery = errors.New("broker: unknown delivery tag")
)

// Message is the unit of communication.
type Message struct {
	Exchange   string
	RoutingKey string
	Headers    map[string]string
	Body       []byte
	Timestamp  time.Time

	// journalID identifies the message in a durable queue's journal;
	// zero outside durable queues.
	journalID uint64
	// redeliveries counts how many times the message returned to the
	// ready list after being handed to a consumer (nack-requeue or
	// consumer cancellation). Drives the Redelivered flag and the
	// MaxRedeliver dead-letter bound.
	redeliveries int
}

// Delivery is a message handed to a consumer, carrying the delivery tag
// used to acknowledge it.
type Delivery struct {
	Message
	Queue       string
	Tag         uint64
	Redelivered bool
}

// QueueOptions configures a declared queue.
type QueueOptions struct {
	// AutoDelete removes the queue when its last consumer cancels
	// (mirrors the anonymous auto-delete queues the binder creates for
	// publish-subscribe consumers).
	AutoDelete bool
	// MaxLen bounds the number of ready messages; publishers block when
	// the bound is hit, providing backpressure. Zero means unbounded.
	MaxLen int
	// Durable journals the queue's declaration and contents when the
	// broker was opened with NewDurable: unconsumed and unacknowledged
	// messages survive a broker restart (at-least-once; see journal.go).
	// Incompatible with AutoDelete. Ignored on a non-durable broker.
	Durable bool
	// MaxRedeliver bounds how many times a message may return to the
	// ready list before it is moved to the dead-letter queue instead of
	// hot-looping at the queue head. Zero selects DefaultMaxRedeliver;
	// negative means unlimited.
	MaxRedeliver int
}

// DeadQueue is the dead-letter queue: messages nacked without requeue,
// or requeued past a queue's MaxRedeliver bound, land here for offline
// inspection instead of being dropped or looping forever. It is
// declared lazily on first use (durable when the broker is) and
// annotated with an "x-dead-from" header naming the source queue.
const DeadQueue = "dead"

// DefaultMaxRedeliver is the redelivery bound applied when
// QueueOptions.MaxRedeliver is zero. Generous enough that transient
// publish failures (a broker restart, an injected connection cut) never
// dead-letter a healthy tuple, small enough that a genuinely poisonous
// message stops churning the queue head.
const DefaultMaxRedeliver = 256

// Client is the operation surface shared by the in-process broker and
// the TCP client, so services are transport-agnostic.
type Client interface {
	DeclareExchange(name string, kind ExchangeKind) error
	DeclareQueue(name string, opts QueueOptions) error
	DeleteQueue(name string) error
	Bind(queue, exchange, routingKey string) error
	Publish(exchange, routingKey string, headers map[string]string, body []byte) error
	Consume(queue string, prefetch int, autoAck bool) (Consumer, error)
	QueueStats(queue string) (QueueStats, error)
	Close() error
}

// Consumer receives deliveries from one queue.
type Consumer interface {
	// Deliveries is closed when the consumer is cancelled or the broker
	// shuts down.
	Deliveries() <-chan Delivery
	// Ack confirms processing of the delivery with the given tag.
	Ack(tag uint64) error
	// Nack returns the delivery to the queue head (requeue=true) or
	// drops it (requeue=false).
	Nack(tag uint64, requeue bool) error
	// Cancel detaches the consumer from the queue.
	Cancel() error
}

// QueueStats is a point-in-time snapshot of one queue, the data shown in
// the RabbitMQ management UI's queue table (Figure 18 of the text).
type QueueStats struct {
	Name         string
	Ready        int     // messages waiting for a consumer
	Unacked      int     // delivered but not yet acknowledged
	Consumers    int     // attached consumers
	Published    int64   // total messages routed into the queue
	Delivered    int64   // total messages handed to consumers
	Acked        int64   // total acknowledgements
	Redelivered  int64   // messages returned to the ready list after delivery
	DeadLettered int64   // messages moved to the dead-letter queue
	InRate       float64 // smoothed publish rate, messages/s
	OutRate      float64 // smoothed ack rate, messages/s
}

// State summarises Ready+Unacked as the management UI does.
func (s QueueStats) State() string {
	if s.Ready == 0 && s.Unacked == 0 {
		return "idle"
	}
	return "running"
}

// Broker is the in-process message broker. The zero value is not usable;
// call New.
type Broker struct {
	clock vclock.Clock
	log   *journal // nil on a non-durable broker

	mu        sync.RWMutex
	closed    bool
	exchanges map[string]*exchange
	queues    map[string]*queue
	anonSeq   atomic.Uint64

	// gate, when set, blocks publishes until their records are
	// replicated to a quorum; see SetCommitGate in repl.go.
	gateMu sync.RWMutex
	gate   func(ctx context.Context, lsn uint64) error
}

// New creates a broker. A nil clock defaults to the wall clock.
func New(clock vclock.Clock) *Broker {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Broker{
		clock:     clock,
		exchanges: make(map[string]*exchange),
		queues:    make(map[string]*queue),
	}
}

// DurableOptions tunes a durable broker.
type DurableOptions struct {
	// MaxSegmentBytes is the rollover size of the journal's segment
	// files; zero selects DefaultMaxSegmentBytes. Smaller segments mean
	// finer-grained truncation of settled traffic at the cost of more
	// files.
	MaxSegmentBytes int64
}

// NewDurable creates a broker backed by a segmented append-only
// journal in dir, replaying any state a previous instance left behind:
// exchanges, durable queues, bindings, and the unsettled messages of
// durable queues (at-least-once across restarts).
func NewDurable(clock vclock.Clock, dir string) (*Broker, error) {
	return NewDurableWith(clock, dir, DurableOptions{})
}

// NewDurableWith is NewDurable with explicit options.
func NewDurableWith(clock vclock.Clock, dir string, opts DurableOptions) (*Broker, error) {
	b := New(clock)
	log, state, err := openJournal(dir, opts.MaxSegmentBytes)
	if err != nil {
		return nil, err
	}
	// Replay without re-journaling (openJournal already compacted the
	// live state into the fresh journal file).
	for _, ex := range state.exchanges {
		if err := b.DeclareExchange(ex.name, ex.kind); err != nil {
			return nil, err
		}
	}
	for _, q := range state.queues {
		if err := b.DeclareQueue(q.name, q.opts); err != nil {
			return nil, err
		}
	}
	for _, bd := range state.binds {
		if err := b.Bind(bd.queue, bd.exchange, bd.key); err != nil {
			return nil, err
		}
	}
	// Attach the journal before re-enqueueing the surviving messages:
	// the compacted file holds only topology records, so the messages
	// must flow through the normal journaled enqueue path to be
	// persisted again (with fresh ids).
	b.log = log
	b.mu.Lock()
	for _, q := range b.queues {
		if q.opts.Durable {
			q.log = log
		}
	}
	b.mu.Unlock()
	b.mu.RLock()
	for _, q := range state.queues {
		queue := b.queues[q.name]
		for _, msg := range state.messages[q.name] {
			msg.Timestamp = b.clock.Now()
			msg.journalID = 0 // reassigned by the journaled enqueue
			if err := queue.enqueue(msg); err != nil {
				b.mu.RUnlock()
				return nil, err
			}
		}
	}
	b.mu.RUnlock()
	return b, nil
}

type binding struct {
	q     *queue
	key   string
	words []string // key split into words, for topic exchanges
}

type exchange struct {
	name     string
	kind     ExchangeKind
	mu       sync.RWMutex
	bindings []binding
	// routes is the compiled route table, routing key → target queues;
	// see targets in topic.go. Emptied whenever bindings changes.
	routes map[string][]*queue
}

// DeclareExchange creates the exchange if absent. Re-declaring with the
// same kind is idempotent, matching AMQP semantics.
func (b *Broker) DeclareExchange(name string, kind ExchangeKind) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if ex, ok := b.exchanges[name]; ok {
		if ex.kind != kind {
			return fmt.Errorf("%w: %q is %v", ErrExchangeExists, name, ex.kind)
		}
		return nil
	}
	b.exchanges[name] = &exchange{name: name, kind: kind}
	if b.log != nil {
		b.log.logDeclareExchange(name, kind)
	}
	return nil
}

// DeclareQueue creates the queue if absent; idempotent for identical
// options.
func (b *Broker) DeclareQueue(name string, opts QueueOptions) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if opts.Durable && opts.AutoDelete {
		return fmt.Errorf("broker: queue %q cannot be both durable and auto-delete", name)
	}
	if q, ok := b.queues[name]; ok {
		// A declare without a MaxLen or MaxRedeliver bound is passive
		// with respect to an existing bound: services declaring the
		// shared topology must not conflict with an owner that installed
		// backpressure or a redelivery policy on the same queue (e.g. the
		// engine bounding the entry queue).
		passive := opts
		if opts.MaxLen == 0 {
			passive.MaxLen = q.opts.MaxLen
		}
		if opts.MaxRedeliver == 0 {
			passive.MaxRedeliver = q.opts.MaxRedeliver
		}
		if q.opts != passive {
			return fmt.Errorf("%w: %q", ErrQueueExists, name)
		}
		return nil
	}
	q := newQueue(name, opts, b.clock, b.removeQueue)
	if name != DeadQueue {
		q.deadLetter = b.deadLetter
	}
	if b.log != nil && opts.Durable {
		q.log = b.log
		b.log.logDeclareQueue(name, opts)
	}
	b.queues[name] = q
	return nil
}

// deadLetter moves a rejected message to the dead-letter queue,
// declaring it on first use. Called by queues after releasing their own
// lock, so the enqueue below cannot deadlock against the source queue.
func (b *Broker) deadLetter(from string, msg Message) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	q, ok := b.queues[DeadQueue]
	if !ok {
		opts := QueueOptions{MaxRedeliver: -1, Durable: b.log != nil}
		q = newQueue(DeadQueue, opts, b.clock, b.removeQueue)
		if b.log != nil {
			q.log = b.log
			b.log.logDeclareQueue(DeadQueue, opts)
		}
		b.queues[DeadQueue] = q
	}
	b.mu.Unlock()
	hdrs := make(map[string]string, len(msg.Headers)+1)
	for k, v := range msg.Headers {
		hdrs[k] = v
	}
	hdrs["x-dead-from"] = from
	msg.Headers = hdrs
	msg.journalID = 0 // reassigned by the dead queue's journaled enqueue
	msg.redeliveries = 0
	_ = q.enqueue(msg)
}

// AnonymousQueueName generates a unique auto-delete queue name with the
// given prefix, in the style the binder uses for publish-subscribe
// consumers ("Rjoin.exchange.anonymous.42").
func (b *Broker) AnonymousQueueName(prefix string) string {
	return fmt.Sprintf("%s.anonymous.%d", prefix, b.anonSeq.Add(1))
}

// DeleteQueue removes a queue, dropping its messages and cancelling its
// consumers.
func (b *Broker) DeleteQueue(name string) error {
	b.mu.Lock()
	q, ok := b.queues[name]
	if ok {
		delete(b.queues, name)
	}
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoQueue, name)
	}
	if b.log != nil && q.opts.Durable {
		b.log.logDeleteQueue(name)
	}
	b.unbindAll(q)
	q.shutdown()
	return nil
}

// removeQueue is the auto-delete callback.
func (b *Broker) removeQueue(q *queue) {
	b.mu.Lock()
	if cur, ok := b.queues[q.name]; !ok || cur != q {
		b.mu.Unlock()
		return
	}
	delete(b.queues, q.name)
	b.mu.Unlock()
	b.unbindAll(q)
	q.shutdown()
}

func (b *Broker) unbindAll(q *queue) {
	b.mu.RLock()
	exs := make([]*exchange, 0, len(b.exchanges))
	for _, ex := range b.exchanges {
		exs = append(exs, ex)
	}
	b.mu.RUnlock()
	for _, ex := range exs {
		ex.mu.Lock()
		kept := ex.bindings[:0]
		for _, bd := range ex.bindings {
			if bd.q != q {
				kept = append(kept, bd)
			}
		}
		if len(kept) != len(ex.bindings) {
			clear(ex.bindings[len(kept):]) // drop the queue references
			ex.bindings = kept
			ex.routes = nil
		}
		ex.mu.Unlock()
	}
}

// Bind routes messages published to the exchange whose routing key
// matches routingKey (pattern for topic exchanges) into the queue.
func (b *Broker) Bind(queueName, exchangeName, routingKey string) error {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	ex, okE := b.exchanges[exchangeName]
	q, okQ := b.queues[queueName]
	b.mu.RUnlock()
	if !okE {
		return fmt.Errorf("%w: %q", ErrNoExchange, exchangeName)
	}
	if !okQ {
		return fmt.Errorf("%w: %q", ErrNoQueue, queueName)
	}
	if ex.kind == Topic {
		if err := validatePattern(routingKey); err != nil {
			return err
		}
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, bd := range ex.bindings {
		if bd.q == q && bd.key == routingKey {
			return nil // idempotent
		}
	}
	bd := binding{q: q, key: routingKey}
	if ex.kind == Topic {
		bd.words = strings.Split(routingKey, ".")
	}
	ex.bindings = append(ex.bindings, bd)
	ex.routes = nil
	if b.log != nil && q.opts.Durable {
		b.log.logBind(queueName, exchangeName, routingKey)
	}
	return nil
}

// Publish routes one message. It blocks while every matching queue with
// a MaxLen bound is full, which backpressures fast producers the way a
// flow-controlled AMQP channel does.
func (b *Broker) Publish(exchangeName, routingKey string, headers map[string]string, body []byte) error {
	return b.PublishContext(context.Background(), exchangeName, routingKey, headers, body)
}

// PublishContext is Publish honoring cancellation: a publish blocked on
// a full queue returns ctx.Err() when ctx is done. A message already
// enqueued to some of the matching queues stays enqueued (publishing is
// not transactional across queues, exactly as in AMQP).
func (b *Broker) PublishContext(ctx context.Context, exchangeName, routingKey string, headers map[string]string, body []byte) error {
	pubs := [1]Publication{{Exchange: exchangeName, RoutingKey: routingKey, Headers: headers, Body: body}}
	_, err := b.PublishBatch(ctx, pubs[:])
	return err
}

// PublishBatch routes pubs in order, each exactly as its own Publish
// would be (one message per publication, MaxLen honoured per message),
// while paying the per-call costs once: one clock read stamps the whole
// batch and feeds the rate meters, a target queue's lock is taken once
// per run of consecutive messages it receives instead of once per
// message, and the journal is flushed once. It returns how many leading
// publications were enqueued to all their queues; a failure of the
// replication gate, which covers the batch as a whole, reports zero (the
// messages stay enqueued locally and the at-least-once contract tells
// the publisher to retry).
//
// It is EnqueueBatch followed by AwaitCommit. A caller publishing for
// many clients over one ordered stream (wire.Server) calls the halves
// itself, so that the stream is held only for the ordered one.
func (b *Broker) PublishBatch(ctx context.Context, pubs []Publication) (int, error) {
	published, lsn, err := b.EnqueueBatch(ctx, pubs)
	// Quorum gate: on a replicated leader a publish is acknowledged only
	// once its journal records are safe on a quorum of replicas — the
	// prefix of a batch that stopped short included.
	if gerr := b.AwaitCommit(ctx, lsn); gerr != nil {
		return 0, gerr
	}
	return published, err
}

// AwaitCommit blocks until every journal record up to lsn is replicated
// to a quorum, as the commit gate defines it. Without a gate, or with
// the zero LSN of a publish that journaled nothing, it returns at once.
func (b *Broker) AwaitCommit(ctx context.Context, lsn uint64) error {
	if lsn > 0 {
		if gate := b.commitGate(); gate != nil {
			return gate(ctx, lsn)
		}
	}
	return nil
}

// EnqueueBatch is the ordered half of PublishBatch: route, admit and
// journal pubs in order, and flush the journal. Calls made one after
// another enqueue — and draw their LSNs — in call order. It returns the
// published prefix, the error that stopped it, and the highest journal
// LSN the batch produced (zero when it journaled nothing); the batch is
// not acknowledged to anyone until AwaitCommit on that LSN succeeded.
func (b *Broker) EnqueueBatch(ctx context.Context, pubs []Publication) (published int, maxLSN uint64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err // already cancelled: publish nothing
	}
	now := b.clock.Now()
	var (
		ex  *exchange
		cur *queue // locked; run counts what this hold enqueued
		run int64
	)
	release := func() {
		if cur != nil {
			cur.inMeter.Observe(now, run)
			cur.mu.Unlock()
			cur, run = nil, 0
		}
	}
	published = len(pubs)
enqueue:
	for i := range pubs {
		p := &pubs[i]
		if ex == nil || ex.name != p.Exchange {
			release() // never look the broker up under a queue lock
			if ex, err = b.exchange(p.Exchange); err != nil {
				published = i
				break
			}
		}
		msg := Message{
			Exchange:   p.Exchange,
			RoutingKey: p.RoutingKey,
			Headers:    p.Headers,
			Body:       p.Body,
			Timestamp:  now,
		}
		for _, q := range ex.targets(p.RoutingKey) {
			if q != cur {
				release()
				q.mu.Lock()
				cur = q
			}
			lsn, aerr := q.admitLocked(ctx, msg)
			if errors.Is(aerr, ErrClosed) {
				continue // deleted under us: as if never bound
			}
			if aerr != nil {
				published, err = i, aerr
				break enqueue
			}
			run++
			maxLSN = max(maxLSN, lsn)
		}
	}
	release()
	if maxLSN > 0 {
		b.log.flush()
	}
	return published, maxLSN, err
}

// exchange looks a declared exchange up.
func (b *Broker) exchange(name string) (*exchange, error) {
	b.mu.RLock()
	closed, ex := b.closed, b.exchanges[name]
	b.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ex == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoExchange, name)
	}
	return ex, nil
}

// MaxPrefetch caps a consumer's prefetch. The delivery channel is sized
// by prefetch, and the value can arrive from a remote client (wire's
// opConsume), so an unchecked one would let a single frame allocate
// without bound. 4096 is the deepest window the engine asks for (a
// checkpointing joiner's).
const MaxPrefetch = 4096

// Consume attaches a consumer to the queue. prefetch bounds the number
// of unacknowledged deliveries in flight to this consumer; it is
// clamped to [1, MaxPrefetch]. With autoAck deliveries are confirmed as
// they are handed out.
func (b *Broker) Consume(queueName string, prefetch int, autoAck bool) (Consumer, error) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrClosed
	}
	q, ok := b.queues[queueName]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoQueue, queueName)
	}
	return q.addConsumer(prefetch, autoAck)
}

// QueueStats snapshots one queue.
func (b *Broker) QueueStats(queueName string) (QueueStats, error) {
	b.mu.RLock()
	q, ok := b.queues[queueName]
	b.mu.RUnlock()
	if !ok {
		return QueueStats{}, fmt.Errorf("%w: %q", ErrNoQueue, queueName)
	}
	return q.stats(), nil
}

// Queues lists the declared queue names in sorted order.
func (b *Broker) Queues() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.queues))
	for n := range b.queues {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Exchanges lists the declared exchanges as "name kind" in sorted order.
func (b *Broker) Exchanges() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.exchanges))
	for n, ex := range b.exchanges {
		out = append(out, n+" "+ex.kind.String())
	}
	sort.Strings(out)
	return out
}

// Close shuts the broker down, cancelling every consumer.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	qs := make([]*queue, 0, len(b.queues))
	for _, q := range b.queues {
		qs = append(qs, q)
	}
	b.queues = map[string]*queue{}
	b.exchanges = map[string]*exchange{}
	b.mu.Unlock()
	for _, q := range qs {
		q.shutdown()
	}
	if b.log != nil {
		return b.log.close()
	}
	return nil
}

// FormatQueueTable renders all queues as the text table of Figure 18.
func (b *Broker) FormatQueueTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-52s %-8s %7s %8s %7s %10s %10s\n",
		"Name", "State", "Ready", "Unacked", "Total", "In msg/s", "Ack msg/s")
	for _, name := range b.Queues() {
		st, err := b.QueueStats(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "%-52s %-8s %7d %8d %7d %10.1f %10.1f\n",
			st.Name, st.State(), st.Ready, st.Unacked, st.Ready+st.Unacked,
			st.InRate, st.OutRate)
	}
	return sb.String()
}
