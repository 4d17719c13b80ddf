package joiner

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bistream/internal/broker"
	"bistream/internal/checkpoint"
	"bistream/internal/index"
	"bistream/internal/metrics"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

// Service connects a joiner core to the broker. It owns two queues —
// the store-stream queue on its own relation's store exchange and the
// join-stream queue on the opposite relation's join exchange — each
// bound to the member's key and to the shared punctuation key, and it
// publishes join results to the result exchange.
//
// Consumption is manual-ack: a delivery is acknowledged only after the
// core has fully handled it, so a crash between delivery and ack
// requeues the tuple instead of losing it. Redeliveries are rendered
// harmless by the core's (relation, seq) idempotency filter. Result
// publishes that fail (broker down, injected fault) are buffered and
// retried until the broker is reachable again — the join never drops a
// result because of a transient publish error.
type Service struct {
	core   *Core
	client broker.Client

	mu        sync.Mutex // serializes core access from the two streams
	storeCons broker.Consumer
	joinCons  broker.Consumer
	stopCh    chan struct{}
	wg        sync.WaitGroup
	started   bool
	// frame is the open result frame: the pairs emitted since the last
	// seal, each distinct tuple written once (tuple.FrameEncoder).
	// Sealing copies it into out as one publication and resets the
	// encoder, so every frame decodes on its own.
	frame tuple.FrameEncoder
	// out holds the sealed result frames of the current hold of mu, in
	// emit order; publishLocked seals the open frame and moves them to
	// the broker in one batch before mu is released, so out, frame and
	// buffered are empty whenever mu is free.
	out      []broker.Publication
	buffered int // result pairs in out and frame
	// retry holds result frames whose publish failed, in emit order, and
	// retryBytes their total size; drained opportunistically after each
	// handled batch and by a background ticker while the stream is quiet.
	retry      [][]byte
	retryBytes int

	// Checkpointing (nil ckpt = disabled). With checkpointing on, acks
	// are deferred: a handled delivery joins pendingAcks and is
	// acknowledged only after the next checkpoint commits — the ack
	// barrier that makes a cold restart lossless (unacked deliveries are
	// requeued by the broker; acked ones are in the checkpoint).
	ckpt         *checkpoint.Checkpointer
	ckptInterval time.Duration
	pendingAcks  []pendingAck
	// ckptMu serializes whole checkpoint rounds (the Checkpointer is
	// not safe for concurrent use, and Stop's final round can otherwise
	// race the ticker's). Always taken before mu.
	ckptMu sync.Mutex

	redelivered   *metrics.Counter
	publishErrors *metrics.Counter
	ackErrors     *metrics.Counter
	poison        *metrics.Counter
	dropped       *metrics.Counter
	ckptErrors    *metrics.Counter
}

// pendingAck is one handled-but-unacknowledged delivery batch awaiting
// the next checkpoint commit.
type pendingAck struct {
	cons broker.Consumer
	tags []uint64
}

// ackBatch settles a batch of delivery tags.
func (s *Service) ackBatch(cons broker.Consumer, tags []uint64) {
	if err := broker.AckBatch(cons, tags); err != nil {
		s.ackErrors.Inc()
	}
}

// retryBacklogBytes bounds the buffered result frames during a broker
// outage (2 MiB: about 39k pairs of one-integer tuples, up to 72k when
// the pairs share their probe tuple); beyond it the oldest frames are
// dropped and their pairs counted, trading bounded memory for
// completeness exactly like the window state a crashed joiner loses.
const retryBacklogBytes = 2 << 20

// retryInterval paces background republish attempts of buffered
// results while no deliveries are arriving.
const retryInterval = 100 * time.Millisecond

// NewService wraps a core with a broker-backed service. The window
// gauges it registers read the core under the service mutex, so they
// are safe to scrape from the exporter's HTTP goroutine while the
// consume loops run.
func NewService(core *Core, client broker.Client) *Service {
	s := &Service{core: core, client: client}
	reg, prefix := core.cfg.Metrics, core.prefix
	s.redelivered = reg.Counter(prefix + "redelivered")
	s.publishErrors = reg.Counter(prefix + "publish_errors")
	s.ackErrors = reg.Counter(prefix + "ack_errors")
	s.poison = reg.Counter(prefix + "poison")
	s.dropped = reg.Counter(prefix + "results_dropped")
	reg.GaugeFunc(prefix+"retry_backlog", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.retry))
	})
	reg.GaugeFunc(prefix+"pending", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(core.reorder.Pending())
	})
	reg.GaugeFunc(prefix+"window_tuples", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(core.idx.Len())
	})
	reg.GaugeFunc(prefix+"window_bytes", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(core.MemBytes())
	})
	reg.GaugeFunc(prefix+"sub_indexes", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(core.idx.NumSubIndexes())
	})
	reg.GaugeFunc(prefix+"pending_acks", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, a := range s.pendingAcks {
			n += len(a.tags)
		}
		return float64(n)
	})
	s.ckptErrors = reg.Counter(prefix + "checkpoint_errors")
	return s
}

// defaultCheckpointInterval paces checkpoints when the caller passes a
// non-positive interval. It must stay well under the time a prefetch
// window of deliveries takes to arrive, or deferred acks would stall
// the stream between rounds.
const defaultCheckpointInterval = 250 * time.Millisecond

// EnableCheckpointing turns on checkpointed operation before Start: the
// store is scanned for an existing checkpoint, and if one is intact the
// core's window, ordering, dedup and retry-backlog state are restored
// from it. From then on a background loop snapshots the core every
// interval, and broker acks are withheld until the checkpoint covering
// the delivery commits. Returns whether prior state was recovered; an
// error means durable state exists but cannot be trusted (the caller
// should not start the member blind).
func (s *Service) EnableCheckpointing(ck *checkpoint.Checkpointer, interval time.Duration) (bool, error) {
	if interval <= 0 {
		interval = defaultCheckpointInterval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return false, fmt.Errorf("joiner: EnableCheckpointing after Start")
	}
	snap, err := ck.Recover()
	if err != nil {
		return false, err
	}
	if snap != nil {
		if err := s.core.Restore(snap); err != nil {
			return false, err
		}
		s.retry, s.retryBytes = nil, 0
		for _, frame := range snap.Retry {
			s.retryLocked(frame)
		}
	}
	s.ckpt = ck
	s.ckptInterval = interval
	return snap != nil, nil
}

// Queues returns the (storeQueue, joinQueue) names of this member.
func (s *Service) Queues() (string, string) {
	return topo.StoreQueue(s.core.Rel(), s.core.ID()),
		topo.JoinQueue(s.core.Rel(), s.core.ID())
}

// Start declares the shared topology (idempotently — services may come
// up in any order) and this member's queues, binds them, and begins
// consuming. A stopped service can be started again: its queues were
// kept, so messages that arrived in between (or were requeued unacked)
// are consumed on resume.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("joiner: service already started")
	}
	if err := topo.Declare(s.client); err != nil {
		return err
	}
	storeQ, joinQ := s.Queues()
	memberKey := topo.MemberKey(s.core.ID())
	storeEx := topo.StoreExchange(s.core.Rel())
	joinEx := topo.JoinExchange(s.core.Rel().Opposite())
	for _, step := range []struct {
		queue, exchange, key string
	}{
		{storeQ, storeEx, memberKey},
		{storeQ, storeEx, topo.PunctKey},
		{joinQ, joinEx, memberKey},
		{joinQ, joinEx, topo.PunctKey},
	} {
		// Member queues are durable consumer-group subscriptions (§4.2).
		if err := s.client.DeclareQueue(step.queue, broker.QueueOptions{Durable: true}); err != nil {
			return err
		}
		if err := s.client.Bind(step.queue, step.exchange, step.key); err != nil {
			return err
		}
	}
	// With checkpointing the ack barrier keeps every delivery of an
	// interval unacked until the covering epoch commits, so prefetch —
	// not processing speed — caps throughput at prefetch/interval per
	// queue. A deeper window keeps one interval of peak traffic in
	// flight; without checkpointing acks land per batch and the window
	// just needs to keep a couple of consume batches in flight so the
	// batch gather never starves.
	prefetch := 2 * maxConsumeBatch
	if s.ckpt != nil {
		prefetch = 4096
	}
	storeCons, err := s.client.Consume(storeQ, prefetch, false)
	if err != nil {
		return err
	}
	joinCons, err := s.client.Consume(joinQ, prefetch, false)
	if err != nil {
		storeCons.Cancel()
		return err
	}
	s.storeCons, s.joinCons = storeCons, joinCons
	s.stopCh = make(chan struct{})
	s.started = true
	loops := 3
	if s.ckpt != nil {
		loops++
	}
	s.wg.Add(loops)
	go s.consumeLoop(storeCons, protocol.SourceStore)
	go s.consumeLoop(joinCons, protocol.SourceJoin)
	go s.retryLoop(s.stopCh)
	if s.ckpt != nil {
		go s.checkpointLoop(s.stopCh)
	}
	return nil
}

// Stop cancels consumption and waits for the loops to drain. In-flight
// unacknowledged deliveries are requeued by the broker and redelivered
// after a restart; the member's queues stay declared so a restart can
// resume. Retire deletes them.
func (s *Service) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	storeCons, joinCons := s.storeCons, s.joinCons
	ckpt := s.ckpt
	close(s.stopCh)
	s.mu.Unlock()
	if ckpt != nil {
		// Final checkpoint before cancelling: it acks every covered
		// delivery, so the broker requeues only what arrived after it.
		// Best-effort — a failure just means more redelivery on restart.
		_ = s.checkpointNow()
	}
	storeCons.Cancel()
	joinCons.Cancel()
	s.wg.Wait()
}

// Retire stops the service and deletes its queues (scale-in after the
// member's window has drained).
func (s *Service) Retire() {
	s.Stop()
	storeQ, joinQ := s.Queues()
	_ = s.client.DeleteQueue(storeQ)
	_ = s.client.DeleteQueue(joinQ)
	// Drop the member's registry subtree (including the gauge funcs
	// registered by NewService) so scrapes stop reporting a dead member.
	s.core.cfg.Metrics.UnregisterPrefix(s.core.prefix)
}

// Core exposes the underlying core. Callers must not invoke core
// methods while the service is running; use the locked wrappers below.
func (s *Service) Core() *Core { return s.core }

// ID returns the member id.
func (s *Service) ID() int32 { return s.core.ID() }

// Rel returns the stored relation.
func (s *Service) Rel() tuple.Relation { return s.core.Rel() }

// Stats snapshots the core's counters, serialized against the consume
// loops.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Stats()
}

// MemBytes reports the core's resident state, serialized against the
// consume loops.
func (s *Service) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.MemBytes()
}

// RetryBacklog reports how many result publishes — result frames, each
// of one or more pairs — are waiting to be retried.
func (s *Service) RetryBacklog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.retry)
}

// Flush processes every buffered envelope regardless of punctuation
// frontiers; results are published. For engine shutdown.
func (s *Service) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.core.Flush(s.emit)
	s.publishLocked()
}

// AddRouter registers a router path with the ordering protocol.
func (s *Service) AddRouter(id int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.core.AddRouter(id)
}

// RemoveRouter unregisters a router; results its departure unblocks are
// published.
func (s *Service) RemoveRouter(id int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.core.RemoveRouter(id, s.emit)
	s.publishLocked()
}

// ErrNotDrained is returned by ExportIfDrained while the member's
// release frontier has not yet passed the requested drain barrier.
var ErrNotDrained = fmt.Errorf("joiner: not drained past the migration barrier")

// Frontier reports the member's release frontier (minimum punctuated
// counter over its registered router paths), serialized against the
// consume loops.
func (s *Service) Frontier() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.MinFrontier()
}

// ExportIfDrained atomically checks the drain barrier and snapshots the
// member for migration: if every router path's frontier has passed
// minStamp — i.e. every tuple stamped before the layout change has been
// released and handled here — it returns a full snapshot of the window.
// Otherwise it returns ErrNotDrained and the caller polls again. The
// check and snapshot happen under one critical section, so no envelope
// can slip in between them.
func (s *Service) ExportIfDrained(minStamp uint64) (*checkpoint.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.core.MinFrontier() < minStamp {
		return nil, ErrNotDrained
	}
	return s.core.Snapshot(), nil
}

// ImportForeign grafts a migration donor's sealed segments onto this
// member's window, serialized against the consume loops. Idempotent at
// segment granularity (see Core.Graft); call CheckpointNow afterwards
// so the graft is durable before the donor retires.
func (s *Service) ImportForeign(segs []index.Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Graft(segs)
}

// ExportKeyIfDrained atomically checks the drain barrier and exports
// the stored tuples of one join key (hot-key migration): if every
// router path's frontier has passed minStamp — so every store copy
// hash-routed here before the key's placement flipped has been released
// and stored — it returns the key's tuples, which stay in the window
// until DropKeySeqs removes them at cut-over. Otherwise it returns
// ErrNotDrained and the caller polls again.
func (s *Service) ExportKeyIfDrained(keyHash uint64, minStamp uint64) ([]*tuple.Tuple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.core.MinFrontier() < minStamp {
		return nil, ErrNotDrained
	}
	return s.core.ExportKey(keyHash), nil
}

// DropKeySeqs removes the previously exported tuples of one join key
// from the window (hot-key migration cut-over), serialized against the
// consume loops. It returns how many tuples were removed.
func (s *Service) DropKeySeqs(keyHash uint64, seqs []uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.DropKeySeqs(keyHash, seqs)
}

// maxConsumeBatch caps how many deliveries one consume-loop wakeup
// gathers before handing them to the core as a single batch. Large
// enough to amortize the mutex, ack and checkpoint bookkeeping and to
// let the core's shard fan-out pay off; small enough to keep the
// latency a batch adds under the punctuation interval at typical rates.
const maxConsumeBatch = 512

// consumeLoop drains one queue in batches: block for the first
// delivery, then gather whatever else is already queued (up to
// maxConsumeBatch), decode outside the service mutex through a
// slab-backed decoder, and hand the whole batch to the core in one
// critical section. Acks are settled per batch — deferred to the next
// checkpoint commit when checkpointing is on.
func (s *Service) consumeLoop(cons broker.Consumer, src protocol.Source) {
	defer s.wg.Done()
	var dec tuple.Decoder
	batch := make([]broker.Delivery, 0, maxConsumeBatch)
	envs := make([]protocol.Envelope, 0, maxConsumeBatch)
	tags := make([]uint64, 0, maxConsumeBatch)
	ch := cons.Deliveries()
	for d := range ch {
		var open bool
		batch, open = broker.Drain(ch, d, batch)
		envs, tags = envs[:0], tags[:0]
		for i := range batch {
			s.decodeDelivery(cons, &batch[i], &dec, &envs, &tags)
		}
		clear(batch) // drop the body references
		s.handleBatch(cons, src, envs, tags)
		clearEnvelopes(envs)
		if !open {
			return
		}
	}
}

// decodeDelivery decodes one delivery — a router's frame of envelopes
// or a lone envelope — into the batch buffers, with one tag however
// many envelopes it carried. Poison messages, a frame with any corrupt
// entry included, are rejected whole without requeue, which routes them
// to the dead-letter queue for inspection.
func (s *Service) decodeDelivery(cons broker.Consumer, d *broker.Delivery, dec *tuple.Decoder, envs *[]protocol.Envelope, tags *[]uint64) {
	if d.Redelivered {
		s.redelivered.Inc()
	}
	var err error
	if *envs, err = protocol.AppendEnvelopes(*envs, d.Body, dec); err != nil {
		s.poison.Inc()
		if err := cons.Nack(d.Tag, false); err != nil {
			s.ackErrors.Inc()
		}
		return
	}
	*tags = append(*tags, d.Tag)
}

// handleBatch runs one decoded batch through the core and settles its
// acks. The tag slice is copied when acks defer to a checkpoint,
// because the caller reuses its backing array for the next batch.
func (s *Service) handleBatch(cons broker.Consumer, src protocol.Source, envs []protocol.Envelope, tags []uint64) {
	if len(envs) == 0 {
		return
	}
	s.mu.Lock()
	s.core.HandleBatch(envs, src, s.emit)
	s.publishLocked()
	deferAck := s.ckpt != nil
	if deferAck && len(tags) > 0 {
		s.pendingAcks = append(s.pendingAcks, pendingAck{cons, append([]uint64(nil), tags...)})
	}
	s.mu.Unlock()
	if deferAck {
		// Checkpointed operation: the acks wait for the next checkpoint
		// commit, so a cold crash can only lose deliveries the broker
		// still holds unacked — and will redeliver.
		return
	}
	// Ack after the core fully handled the batch: a crash before this
	// point requeues it (at-least-once), and the core's dedup absorbs
	// the redeliveries. Acks that fail (connection lost in the window)
	// leave the deliveries unacked server-side; they will be redelivered
	// and suppressed the same way.
	s.ackBatch(cons, tags)
}

// checkpointLoop snapshots the core every interval while the service
// runs. Save happens outside the service mutex — the snapshot owns
// copies of all mutable containers and tuples are immutable — so the
// consume loops keep flowing during the (possibly slow) store write.
func (s *Service) checkpointLoop(stop <-chan struct{}) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.ckptInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			_ = s.checkpointNow()
		}
	}
}

// checkpointNow takes one checkpoint round: snapshot under the mutex,
// persist outside it, then acknowledge every delivery the committed
// checkpoint covers. On a failed save the captured acks are put back —
// the deliveries stay unacked until some later round commits, keeping
// the ack barrier intact.
func (s *Service) checkpointNow() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	if s.ckpt == nil {
		s.mu.Unlock()
		return nil
	}
	snap := s.core.Snapshot()
	if len(s.retry) > 0 {
		snap.Retry = append([][]byte(nil), s.retry...)
	}
	acks := s.pendingAcks
	s.pendingAcks = nil
	s.mu.Unlock()
	if err := s.ckpt.Save(snap); err != nil {
		s.ckptErrors.Inc()
		s.mu.Lock()
		s.pendingAcks = append(acks, s.pendingAcks...)
		s.mu.Unlock()
		return err
	}
	for _, a := range acks {
		s.ackBatch(a.cons, a.tags)
	}
	return nil
}

// CheckpointNow forces a checkpoint round outside the ticker (tests and
// orderly shutdown paths).
func (s *Service) CheckpointNow() error { return s.checkpointNow() }

// PendingAcks reports how many handled deliveries await the next
// checkpoint commit.
func (s *Service) PendingAcks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.pendingAcks {
		n += len(a.tags)
	}
	return n
}

// retryLoop republishes buffered results while the stream is quiet, so
// an outage that outlives the traffic still drains the backlog.
func (s *Service) retryLoop(stop <-chan struct{}) {
	defer s.wg.Done()
	ticker := time.NewTicker(retryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.mu.Lock()
			s.drainRetryLocked()
			s.mu.Unlock()
		}
	}
}

// maxEmitBatch bounds how many emitted results wait for one
// PublishBatch: a batch whose probes explode (a hot key against a full
// window) publishes in slices instead of buffering every pair.
const maxEmitBatch = 4096

// maxResultFrame is the size at which the open result frame is sealed
// into a publication of its own. Results need no order and are
// deduplicated per pair at the sink, so one broker message can carry
// many of them; the bound keeps a frame a modest broker message and
// retry-backlog unit. A frame holds at least one pair, so it can exceed
// the bound by at most one pair.
const maxResultFrame = 32 << 10

// emit appends a join result to the open result frame for
// publishLocked. Called with s.mu held.
func (s *Service) emit(jr tuple.JoinResult) {
	s.frame.AppendPair(jr.Left, jr.Right)
	s.buffered++
	if s.frame.Len() >= maxResultFrame {
		s.sealFrame()
	}
	if s.buffered >= maxEmitBatch {
		s.publishLocked()
	}
}

// sealFrame moves the open result frame into out as one publication.
// The body is a copy: the broker keeps it for as long as the message
// lives, while the encoder's buffer is reused for the next frame.
func (s *Service) sealFrame() {
	if s.frame.Len() == 0 {
		return
	}
	s.out = append(s.out, broker.Publication{
		Exchange: topo.ResultExchange, RoutingKey: topo.ResultKey,
		Body: append([]byte(nil), s.frame.Bytes()...),
	})
	s.frame.Reset()
}

// publishLocked publishes the results emitted under this hold of s.mu,
// sealed into result frames, with one PublishBatch. Frames whose publish
// fails join the retry backlog instead of being dropped, and ordering
// across frames is preserved by never publishing around a non-empty
// backlog: the backlog goes first, and while any of it remains the fresh
// frames queue up behind it. Called with s.mu held, by everything that
// hands s.emit to the core, before releasing it.
func (s *Service) publishLocked() {
	s.sealFrame()
	s.buffered = 0
	s.drainRetryLocked()
	if len(s.out) == 0 {
		return
	}
	published := 0
	if len(s.retry) == 0 {
		var err error
		if published, err = broker.PublishBatch(context.Background(), s.client, s.out); err != nil {
			s.publishErrors.Inc()
		}
	}
	for _, p := range s.out[published:] {
		s.retryLocked(p.Body)
	}
	clear(s.out) // drop the body references
	s.out = s.out[:0]
}

// retryLocked appends a result frame to the retry backlog, first
// dropping whole oldest frames while the backlog would exceed
// retryBacklogBytes. results_dropped counts the pairs lost. Called with
// s.mu held.
func (s *Service) retryLocked(frame []byte) {
	for len(s.retry) > 0 && s.retryBytes+len(frame) > retryBacklogBytes {
		// Frames come from emit or from a checkpoint of its backlog and
		// always decode; one that did not would still be one lost result.
		var dec tuple.Decoder
		pairs, _ := dec.AppendPairs(nil, s.retry[0])
		s.dropped.Add(max(int64(len(pairs)/2), 1))
		s.retryBytes -= len(s.retry[0])
		s.retry[0] = nil
		s.retry = s.retry[1:]
	}
	s.retry = append(s.retry, frame)
	s.retryBytes += len(frame)
}

// drainRetryLocked republishes buffered result frames until the backlog
// is empty or a publish fails again. Called with s.mu held.
func (s *Service) drainRetryLocked() {
	for len(s.retry) > 0 {
		if err := s.client.Publish(topo.ResultExchange, topo.ResultKey, nil, s.retry[0]); err != nil {
			s.publishErrors.Inc()
			return
		}
		s.retryBytes -= len(s.retry[0])
		s.retry[0] = nil
		s.retry = s.retry[1:]
	}
	s.retry = nil
}
