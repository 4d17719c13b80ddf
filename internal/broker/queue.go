package broker

import (
	"context"
	"sync"

	"bistream/internal/metrics"
	"bistream/internal/vclock"
)

// queue holds ready messages and dispatches them to consumers in FIFO
// order. Each consumer runs a dispatcher goroutine that pops runs of
// messages from the shared ready ring and sends them into the consumer's
// delivery channel: the channel's capacity (== prefetch) provides flow
// control for auto-ack consumers, and the unacked window bounds
// manual-ack consumers. A single popper per consumer preserves pairwise
// FIFO.
type queue struct {
	name string
	opts QueueOptions

	mu        sync.Mutex
	notFull   *sync.Cond
	notEmpty  *sync.Cond
	ready     msgRing
	unacked   int // delivered, unsettled messages across all consumers
	consumers []*consumer
	closed    bool
	everHad   bool // a consumer has attached at least once (for AutoDelete)

	published    metrics.Counter
	delivered    metrics.Counter
	acked        metrics.Counter
	redelivered  metrics.Counter
	deadLettered metrics.Counter
	inMeter      *metrics.Meter
	outMeter     *metrics.Meter
	clock        vclock.Clock
	onEmpty      func(*queue)                   // auto-delete callback
	deadLetter   func(from string, msg Message) // nil on the dead queue itself
	log          *journal                       // non-nil for durable queues on a durable broker

	nextTag uint64
	logSeq  uint64 // journal message ids
}

// logNewEnqueue journals a message entering the ready list for the
// first time, assigning its journal id, and returns the record's
// journal-wide LSN (zero when the queue is not journaled). Called with
// q.mu held; the journal has its own lock.
func (q *queue) logNewEnqueue(msg *Message) uint64 {
	if q.log == nil {
		return 0
	}
	q.logSeq++
	msg.journalID = q.logSeq
	return q.log.logEnqueue(q.name, msg.journalID, *msg)
}

// logReEnqueue journals a message re-entering the ready list after its
// settle was already logged (the auto-ack cancel path). Called with
// q.mu held.
func (q *queue) logReEnqueue(msg Message) {
	if q.log != nil && msg.journalID != 0 {
		q.log.logEnqueue(q.name, msg.journalID, msg)
	}
}

// logSettle journals a settlement (ack, drop, or auto-ack dispatch).
// Called with q.mu held.
func (q *queue) logSettle(msg Message) {
	if q.log != nil && msg.journalID != 0 {
		q.log.logSettle(q.name, msg.journalID)
	}
}

// flushLog ends an operation's run of journal records (see
// journal.flush): every path that journaled calls it once, before it
// reports the operation done.
func (q *queue) flushLog() {
	if q.log != nil {
		q.log.flush()
	}
}

func newQueue(name string, opts QueueOptions, clock vclock.Clock, onEmpty func(*queue)) *queue {
	q := &queue{
		name:     name,
		opts:     opts,
		inMeter:  metrics.NewMeter(0),
		outMeter: metrics.NewMeter(0),
		clock:    clock,
		onEmpty:  onEmpty,
	}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// enqueue adds a message the broker itself re-homes (journal replay,
// dead-lettering), blocking while the queue is at MaxLen.
func (q *queue) enqueue(msg Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, err := q.admitLocked(context.Background(), msg)
	if err == nil {
		q.inMeter.Observe(q.clock.Now(), 1)
		q.flushLog()
	}
	return err
}

// admitLocked appends one message to the ready ring, first waiting
// while the queue is at MaxLen: when ctx is done while the bound blocks,
// it returns ctx.Err() without enqueueing. It returns the journal LSN of
// the enqueue record (zero when the queue is not journaled) so the
// publish path can gate on replication. Called with q.mu held (the wait
// releases it); the caller feeds the rate meter.
func (q *queue) admitLocked(ctx context.Context, msg Message) (uint64, error) {
	if q.opts.MaxLen > 0 && q.backlogLocked() >= q.opts.MaxLen {
		q.flushLog() // the batch so far must not sit in a buffer while parked
		if err := q.waitRoomLocked(ctx); err != nil {
			return 0, err
		}
	}
	if q.closed {
		return 0, ErrClosed
	}
	lsn := q.logNewEnqueue(&msg)
	q.ready.pushBack(msg)
	q.published.Inc()
	q.notEmpty.Signal()
	return lsn, nil
}

// waitRoomLocked parks the publisher until the backlog drops below
// MaxLen, the queue closes, or ctx is done.
func (q *queue) waitRoomLocked(ctx context.Context) error {
	if ctx.Done() != nil {
		// Wake the cond wait when the context fires; Broadcast because
		// several publishers may be parked with different contexts.
		stop := context.AfterFunc(ctx, func() {
			q.mu.Lock()
			q.notFull.Broadcast()
			q.mu.Unlock()
		})
		defer stop()
	}
	for q.backlogLocked() >= q.opts.MaxLen && !q.closed && ctx.Err() == nil {
		q.notFull.Wait()
	}
	if err := ctx.Err(); err != nil && q.backlogLocked() >= q.opts.MaxLen {
		return err
	}
	return nil
}

// backlogLocked counts messages the queue is still responsible for:
// ready plus unacknowledged. Using it for the MaxLen bound means slow
// *processing*, not just slow delivery, backpressures publishers.
func (q *queue) backlogLocked() int { return q.ready.len() + q.unacked }

func (q *queue) addConsumer(prefetch int, autoAck bool) (*consumer, error) {
	prefetch = min(max(prefetch, 1), MaxPrefetch)
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	c := &consumer{
		q:        q,
		prefetch: prefetch,
		autoAck:  autoAck,
		ch:       make(chan Delivery, prefetch),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	q.consumers = append(q.consumers, c)
	q.everHad = true
	q.mu.Unlock()
	go c.dispatch()
	return c, nil
}

// detachLocked removes c from the consumer slice. Called with q.mu held.
func (q *queue) detachLocked(c *consumer) {
	for i, cc := range q.consumers {
		if cc == c {
			q.consumers = append(q.consumers[:i], q.consumers[i+1:]...)
			return
		}
	}
}

func (q *queue) shutdown() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	consumers := append([]*consumer(nil), q.consumers...)
	q.ready = msgRing{}
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
	q.mu.Unlock()
	for _, c := range consumers {
		c.Cancel()
	}
}

func (q *queue) stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Name:         q.name,
		Ready:        q.ready.len(),
		Unacked:      q.unacked,
		Consumers:    len(q.consumers),
		Published:    q.published.Value(),
		Delivered:    q.delivered.Value(),
		Acked:        q.acked.Value(),
		Redelivered:  q.redelivered.Value(),
		DeadLettered: q.deadLettered.Value(),
		InRate:       q.inMeter.Rate(),
		OutRate:      q.outMeter.Rate(),
	}
}

// maxDispatchRun caps how many messages a dispatcher moves per q.mu
// acquisition (and sizes its scratch buffer): enough to amortize the
// lock and the wakeup, small enough that competing consumers of one
// queue still interleave.
const maxDispatchRun = 64

// consumer implements Consumer against the in-process queue.
type consumer struct {
	q        *queue
	prefetch int
	autoAck  bool
	ch       chan Delivery
	stop     chan struct{}
	done     chan struct{}

	// guarded by q.mu
	win       ackWindow // manual-ack deliveries not yet settled
	cancelled bool
}

// dispatch is the per-consumer pump: pop a run of ready messages — as
// many as the prefetch bound (manual ack) or the delivery channel's free
// room (auto ack) admits — under one q.mu acquisition, then send them to
// the delivery channel. Only an auto-ack consumer's send can block: a
// manual-ack consumer's channel holds a subset of its unacked window and
// has the prefetch bound as its capacity. It exits when the consumer is
// cancelled or the queue closes.
func (c *consumer) dispatch() {
	q := c.q
	defer close(c.done)
	run := make([]Delivery, 0, min(c.prefetch, maxDispatchRun))
	for {
		q.mu.Lock()
		for !q.closed && !c.cancelled &&
			(q.ready.len() == 0 || (!c.autoAck && c.win.live >= c.prefetch)) {
			q.notEmpty.Wait()
		}
		if q.closed || c.cancelled {
			q.mu.Unlock()
			return
		}
		room := c.prefetch - c.win.live
		if c.autoAck {
			// With a full channel, take one message and block on it.
			room = max(1, cap(c.ch)-len(c.ch))
		}
		n := min(q.ready.len(), room, cap(run))
		for i := 0; i < n; i++ {
			msg := q.ready.popFront()
			q.nextTag++
			run = append(run, Delivery{Message: msg, Queue: q.name, Tag: q.nextTag,
				Redelivered: msg.redeliveries > 0})
			if c.autoAck {
				q.logSettle(msg)
			} else {
				c.win.push(q.nextTag, msg)
			}
		}
		if c.autoAck {
			q.acked.Add(int64(n))
			q.outMeter.Observe(q.clock.Now(), int64(n))
			q.notFull.Broadcast()
			q.flushLog()
		} else {
			q.unacked += n
		}
		q.delivered.Add(int64(n))
		q.mu.Unlock()
		for i := range run {
			select {
			case c.ch <- run[i]: // room, the common case: no wait, no stop check
				continue
			default:
			}
			select {
			case c.ch <- run[i]:
			case <-c.stop:
				c.undeliver(run[i:])
				return
			}
		}
		clear(run) // drop the body references
		run = run[:0]
	}
}

// undeliver puts back popped messages the dispatcher could not hand to
// the delivery channel before the consumer was cancelled: they return
// to the queue head in order, not counted as redeliveries (the consumer
// never saw them).
func (c *consumer) undeliver(rest []Delivery) {
	q := c.q
	q.mu.Lock()
	n := len(rest)
	if c.autoAck {
		q.acked.Add(int64(-n)) // undo the optimistic settle
	} else {
		// The newest n entries of the window. Not re-journaled: the
		// original enqueue records are still unsettled.
		c.win.dropNewest(n)
		q.unacked -= n
	}
	q.delivered.Add(int64(-n))
	for i := n - 1; i >= 0; i-- {
		if c.autoAck {
			// Journaled as a fresh enqueue, balancing the settle the
			// optimistic auto-ack already logged.
			q.logReEnqueue(rest[i].Message)
		}
		q.ready.pushFront(rest[i].Message)
	}
	q.flushLog()
	q.notEmpty.Signal()
	q.mu.Unlock()
}

// Deliveries returns the delivery channel. It is closed after Cancel or
// broker shutdown.
func (c *consumer) Deliveries() <-chan Delivery { return c.ch }

// Ack confirms the delivery with the given tag.
func (c *consumer) Ack(tag uint64) error {
	tags := [1]uint64{tag}
	return c.AckBatch(tags[:])
}

// AckBatch confirms a batch of deliveries under one lock acquisition —
// the settle path batched consumers use so per-delivery lock traffic
// does not erase what batching saved. Unknown tags yield
// ErrUnknownDelivery but do not stop the rest of the batch from
// settling.
func (c *consumer) AckBatch(tags []uint64) error {
	q := c.q
	q.mu.Lock()
	if c.cancelled {
		q.mu.Unlock()
		return ErrConsumerClosed
	}
	var firstErr error
	settled := 0
	for _, tag := range tags {
		msg, ok := c.win.take(tag)
		if !ok {
			if firstErr == nil {
				firstErr = ErrUnknownDelivery
			}
			continue
		}
		q.logSettle(msg)
		settled++
	}
	if settled > 0 {
		q.flushLog()
		q.unacked -= settled
		q.acked.Add(int64(settled))
		q.outMeter.Observe(q.clock.Now(), int64(settled))
		if c.win.live+settled >= c.prefetch {
			// The dispatcher was parked on a full prefetch window; an
			// ack that leaves it waiting for messages wakes nobody.
			q.notEmpty.Broadcast()
		}
		if settled == 1 {
			q.notFull.Signal()
		} else {
			q.notFull.Broadcast()
		}
	}
	q.mu.Unlock()
	return firstErr
}

// maxRedeliver resolves the queue's redelivery bound: negative options
// mean unlimited (-1), zero selects the default.
func (q *queue) maxRedeliver() int {
	switch {
	case q.opts.MaxRedeliver < 0:
		return -1
	case q.opts.MaxRedeliver == 0:
		return DefaultMaxRedeliver
	default:
		return q.opts.MaxRedeliver
	}
}

// Nack rejects the delivery. With requeue it returns to the queue head
// — unless the message has exhausted the queue's MaxRedeliver bound, in
// which case it is dead-lettered instead of hot-looping. Without
// requeue it is dead-lettered immediately (never silently dropped,
// unless the broker has no dead-letter sink, i.e. on the dead queue
// itself).
func (c *consumer) Nack(tag uint64, requeue bool) error {
	q := c.q
	q.mu.Lock()
	if c.cancelled {
		q.mu.Unlock()
		return ErrConsumerClosed
	}
	msg, ok := c.win.take(tag)
	if !ok {
		q.mu.Unlock()
		return ErrUnknownDelivery
	}
	q.unacked--
	dead := false
	if requeue {
		msg.redeliveries++
		if limit := q.maxRedeliver(); q.deadLetter != nil && limit >= 0 && msg.redeliveries > limit {
			dead = true
		} else {
			q.redelivered.Inc()
			q.ready.pushFront(msg) // journal untouched: still unsettled
		}
	} else {
		dead = q.deadLetter != nil
	}
	if dead || !requeue {
		// Settled from this queue's perspective, whether dead-lettered
		// or (no sink) dropped.
		q.acked.Inc()
		q.logSettle(msg)
		q.flushLog()
		q.notFull.Signal()
	}
	if dead {
		q.deadLettered.Inc()
	}
	q.notEmpty.Broadcast()
	q.mu.Unlock()
	if dead {
		// Outside q.mu: the dead queue takes its own lock, and may be
		// this queue's sibling under the same broker.
		q.deadLetter(q.name, msg)
	}
	return nil
}

// Cancel detaches the consumer. Its undelivered buffered messages and
// unacknowledged messages are returned to the queue head in order, and
// the delivery channel is closed.
func (c *consumer) Cancel() error {
	q := c.q
	q.mu.Lock()
	if c.cancelled {
		q.mu.Unlock()
		<-c.done
		return nil
	}
	c.cancelled = true
	close(c.stop)
	q.notEmpty.Broadcast()
	q.mu.Unlock()
	<-c.done // dispatcher finished; it will not touch c.ch again

	q.mu.Lock()
	q.detachLocked(c)
	// Drain deliveries that were buffered but never received, then close.
	// A manual-ack consumer's are in its window as well; an auto-ack
	// consumer's exist only here.
	var buffered []Delivery
drainLoop:
	for {
		select {
		case d := <-c.ch:
			if c.autoAck {
				buffered = append(buffered, d)
			}
		default:
			break drainLoop
		}
	}
	close(c.ch)
	// Requeue at the head, preserving delivery order: the window is
	// tag-ordered (oldest first, the buffered ones last), so pushing it
	// to the front newest-first restores exactly the order the messages
	// left in.
	for i := len(buffered) - 1; i >= 0; i-- {
		q.ready.pushFront(buffered[i].Message)
	}
	q.acked.Add(int64(-len(buffered))) // undo the optimistic settles
	n := c.win.requeue(&q.ready)
	q.redelivered.Add(int64(n))
	q.delivered.Add(int64(-n - len(buffered)))
	q.unacked -= n
	autoDelete := q.opts.AutoDelete && q.everHad && len(q.consumers) == 0 && !q.closed
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
	if autoDelete && q.onEmpty != nil {
		q.onEmpty(q)
	}
	return nil
}
