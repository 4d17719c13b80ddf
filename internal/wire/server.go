package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"bistream/internal/broker"
	"bistream/internal/metrics"
)

// Server accepts TCP connections and executes broker operations on
// behalf of remote clients. One Server fronts one broker.Broker; the
// broker reference is swappable (SetBroker) so a replica node can run
// the listener continuously and only attach a broker while it is the
// leader. While no broker is attached every request is answered with
// broker.ErrNotLeader and the connection is closed, steering
// multi-address clients to the current leader.
type Server struct {
	bmu    sync.RWMutex
	b      *broker.Broker
	reg    *metrics.Registry
	ln     net.Listener
	logf   func(format string, args ...any)
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps the broker (nil for a follower that will attach one
// on promotion). Call Listen to start accepting.
func NewServer(b *broker.Broker, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{b: b, logf: logf, conns: make(map[net.Conn]struct{})}
}

// SetBroker swaps the served broker; nil detaches it (follower mode).
// Existing connections bound to the old broker are dropped so their
// clients re-dial and re-probe the broker set.
func (s *Server) SetBroker(b *broker.Broker) {
	s.bmu.Lock()
	old := s.b
	s.b = b
	s.bmu.Unlock()
	if old == b {
		return
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Broker returns the currently attached broker (nil in follower mode).
func (s *Server) Broker() *broker.Broker {
	s.bmu.RLock()
	defer s.bmu.RUnlock()
	return s.b
}

// SetMetrics makes connections accepted from now on count their frames
// and socket writes in reg (wire.frames_out, wire.writes_out).
func (s *Server) SetMetrics(reg *metrics.Registry) {
	s.bmu.Lock()
	s.reg = reg
	s.bmu.Unlock()
}

func (s *Server) metrics() *metrics.Registry {
	s.bmu.RLock()
	defer s.bmu.RUnlock()
	return s.reg
}

// Listen binds the address and starts serving in background goroutines.
// It returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve starts serving connections accepted from ln, which Close will
// close, in background goroutines.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and drops all connections. The broker itself
// is not closed; it may be shared.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// session is the per-connection state: the broker it serves, its
// consumers, and the one writer every frame to the client goes through.
//
// A publish is executed in two halves. The ordered half
// (broker.EnqueueBatch: route, admit, journal, flush) runs inline on the
// connection's read loop, so a connection's publishes enqueue — and draw
// their LSNs — in the order they were sent, and a full MaxLen queue
// parks the read loop and with it the client's TCP stream. The quorum
// wait does not run there: the request joins the completer's FIFO, and
// the read loop moves on to the next frame. Whatever else arrives
// meanwhile — publishes of the client's other goroutines, acks — is
// journaled and streamed to the replicas while the first wait is still
// in flight, and one advance of the commit LSN then answers all of them.
type session struct {
	srv    *Server
	b      *broker.Broker // nil: follower mode, every request is refused
	conn   net.Conn
	out    *FrameWriter
	ctx    context.Context // done at teardown: ends parked publishes and quorum waits
	cancel context.CancelFunc
	wg     sync.WaitGroup

	names map[string]string // read loop only: interned exchange and key names

	mu        sync.Mutex
	consumers map[uint64]broker.Consumer

	cmu        sync.Mutex
	cwake      *sync.Cond
	awaiting   []journaled // FIFO, ascending LSN: journaled, not yet answered
	completing bool        // the completer goroutine was started
	closing    bool
}

// journaled is a publish request whose ordered half is done.
type journaled struct {
	reqID     uint64
	published int
	lsn       uint64
	err       error
}

func (s *Server) newSession(conn net.Conn) *session {
	sess := &session{srv: s, b: s.Broker(), conn: conn,
		names: make(map[string]string), consumers: make(map[uint64]broker.Consumer)}
	sess.out = NewFrameWriter(conn, 0, s.metrics())
	sess.ctx, sess.cancel = context.WithCancel(context.Background())
	sess.cwake = sync.NewCond(&sess.cmu)
	return sess
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	sess := s.newSession(conn)
	defer sess.teardown()
	in := NewFrameReader(conn)
	for {
		frame, err := in.Next()
		if err == nil {
			err = sess.handle(frame)
		}
		if err == nil && in.Drained() {
			// Nothing more queued: the replies gathered so far go out in
			// one write before the read loop waits for the socket.
			err = sess.out.Flush()
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: connection %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

func (sess *session) teardown() {
	sess.cancel()
	sess.cmu.Lock()
	sess.closing = true
	sess.cwake.Signal()
	sess.cmu.Unlock()
	sess.mu.Lock()
	consumers := make([]broker.Consumer, 0, len(sess.consumers))
	for _, c := range sess.consumers {
		consumers = append(consumers, c)
	}
	sess.consumers = map[uint64]broker.Consumer{}
	sess.mu.Unlock()
	for _, c := range consumers {
		c.Cancel()
	}
	sess.conn.Close()
	sess.wg.Wait()
	sess.srv.mu.Lock()
	delete(sess.srv.conns, sess.conn)
	sess.srv.mu.Unlock()
}

// reply queues a generic ok/error reply; the read loop flushes it.
func (sess *session) reply(reqID uint64, err error) error {
	payload := []byte{opReply}
	payload = binary.LittleEndian.AppendUint64(payload, reqID)
	payload = appendString(payload, errString(err))
	return sess.out.Append(payload)
}

func (sess *session) publishReply(p journaled) error {
	payload := []byte{opPublishReply}
	payload = binary.LittleEndian.AppendUint64(payload, p.reqID)
	payload = binary.AppendUvarint(payload, uint64(p.published))
	payload = appendString(payload, errString(p.err))
	return sess.out.Append(payload)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (sess *session) handle(frame []byte) error {
	op := frame[0]
	r := &reader{buf: frame[1:], names: sess.names}
	reqID := r.uint64()
	b := sess.b
	if b == nil {
		// Follower mode: refuse and hang up, so the client's next dial
		// probes its way to the leader.
		_ = sess.reply(reqID, broker.ErrNotLeader)
		_ = sess.out.Flush()
		return fmt.Errorf("request while not leader")
	}
	switch op {
	case opDeclareExchange:
		name := r.string()
		kind := broker.ExchangeKind(r.byte())
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.DeclareExchange(name, kind))
	case opDeclareQueue:
		name := r.string()
		autoDelete := r.bool()
		maxLen := int(r.uvarint())
		durable := r.bool()
		maxRedeliver := int(r.uvarint()) - 1 // shifted: unlimited (-1) travels as 0
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.DeclareQueue(name, broker.QueueOptions{
			AutoDelete: autoDelete, MaxLen: maxLen, Durable: durable,
			MaxRedeliver: maxRedeliver,
		}))
	case opDeleteQueue:
		name := r.string()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.DeleteQueue(name))
	case opBind:
		q := r.string()
		ex := r.string()
		key := r.string()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.Bind(q, ex, key))
	case opPublishBatch:
		pubs := r.publications()
		if r.err != nil {
			return r.err
		}
		// Admission may park on a full queue; it is done inline so TCP
		// reads pause and the backpressure reaches the remote publisher.
		// No reply may sit in the buffer meanwhile.
		if err := sess.out.Flush(); err != nil {
			return err
		}
		published, lsn, err := b.EnqueueBatch(sess.ctx, pubs)
		return sess.complete(journaled{reqID: reqID, published: published, lsn: lsn, err: err})
	case opConsume:
		id := r.uint64() // client-assigned consumer id
		queue := r.string()
		prefetch := int(r.uvarint())
		autoAck := r.bool()
		if r.err != nil {
			return r.err
		}
		sess.mu.Lock()
		_, taken := sess.consumers[id]
		sess.mu.Unlock()
		if taken {
			// Replacing the entry would orphan the first consumer: nothing
			// could cancel it, and its pump would outlive the session.
			return sess.reply(reqID, fmt.Errorf("wire: consumer id %d is in use", id))
		}
		cons, err := b.Consume(queue, prefetch, autoAck)
		if err != nil {
			return sess.reply(reqID, err)
		}
		sess.mu.Lock()
		sess.consumers[id] = cons
		sess.mu.Unlock()
		payload := []byte{opConsumeOK}
		payload = binary.LittleEndian.AppendUint64(payload, reqID)
		if err := sess.out.Append(payload); err != nil {
			cons.Cancel()
			return err
		}
		sess.wg.Add(1)
		go sess.pumpDeliveries(id, cons)
		return nil
	case opAckBatch:
		id := r.uint64()
		tags := r.tags()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, sess.withConsumer(id, func(c broker.Consumer) error { return broker.AckBatch(c, tags) }))
	case opNack:
		id := r.uint64()
		tag := r.uint64()
		requeue := r.bool()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, sess.withConsumer(id, func(c broker.Consumer) error { return c.Nack(tag, requeue) }))
	case opCancel:
		id := r.uint64()
		if r.err != nil {
			return r.err
		}
		sess.mu.Lock()
		c, ok := sess.consumers[id]
		delete(sess.consumers, id)
		sess.mu.Unlock()
		var err error
		if !ok {
			err = broker.ErrConsumerClosed
		} else {
			err = c.Cancel()
		}
		return sess.reply(reqID, err)
	case opPing:
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, nil)
	case opQueueStats:
		name := r.string()
		if r.err != nil {
			return r.err
		}
		st, err := b.QueueStats(name)
		payload := []byte{opStatsReply}
		payload = binary.LittleEndian.AppendUint64(payload, reqID)
		payload = appendString(payload, errString(err))
		payload = encodeStats(payload, st)
		return sess.out.Append(payload)
	default:
		return fmt.Errorf("wire: unknown opcode %d", op)
	}
}

// complete answers a publish whose ordered half is done. One that needs
// no quorum — nothing journaled, or no commit gate — is answered on the
// spot. Any other joins the FIFO of the completer, which is started on
// first use.
func (sess *session) complete(p journaled) error {
	if p.lsn == 0 || !sess.b.Gated() {
		return sess.publishReply(p)
	}
	sess.cmu.Lock()
	sess.awaiting = append(sess.awaiting, p)
	if !sess.completing {
		sess.completing = true
		sess.wg.Add(1)
		go sess.completeLoop()
	}
	sess.cwake.Signal()
	sess.cmu.Unlock()
	return nil
}

// completeLoop is the session's completer: it takes every request
// journaled so far, waits for the commit LSN to cover the last of them
// — which covers all, the FIFO ascends — and answers them in one write.
// Requests journaled during the wait form the next group. A failed wait
// (no quorum in time, leadership lost, connection gone) answers the
// whole group with zero published: some of it may be committed, and the
// at-least-once contract has the publishers repeat it.
func (sess *session) completeLoop() {
	defer sess.wg.Done()
	var group []journaled
	for {
		sess.cmu.Lock()
		for len(sess.awaiting) == 0 && !sess.closing {
			sess.cwake.Wait()
		}
		if len(sess.awaiting) == 0 {
			sess.cmu.Unlock()
			return
		}
		group, sess.awaiting = sess.awaiting, group[:0]
		sess.cmu.Unlock()
		gerr := sess.b.AwaitCommit(sess.ctx, group[len(group)-1].lsn)
		for _, p := range group {
			if gerr != nil {
				p.published, p.err = 0, gerr
			}
			_ = sess.publishReply(p) // a dead connection fails the Flush too
		}
		if sess.out.Flush() != nil {
			return // the connection is closed; the read loop tears down
		}
	}
}

func (sess *session) withConsumer(id uint64, fn func(broker.Consumer) error) error {
	sess.mu.Lock()
	c, ok := sess.consumers[id]
	sess.mu.Unlock()
	if !ok {
		return broker.ErrConsumerClosed
	}
	return fn(c)
}

// pumpDeliveries forwards broker deliveries to the remote client: it
// waits for one, gathers whatever else the consumer's channel already
// holds, and hands the lot to the socket in one write. A blocking
// socket write backpressures the broker's dispatcher, which is exactly
// the flow control we want.
func (sess *session) pumpDeliveries(id uint64, cons broker.Consumer) {
	defer sess.wg.Done()
	var payload []byte // reused: Append copies
	ch := cons.Deliveries()
	for d, open := <-ch; open; {
		payload = appendDelivery(payload[:0], id, &d)
		if err := sess.out.Append(payload); err != nil {
			cons.Cancel()
			return
		}
		select {
		case d, open = <-ch:
			continue // already queued: same write
		default:
		}
		if err := sess.out.Flush(); err != nil {
			cons.Cancel()
			return
		}
		d, open = <-ch
	}
	payload = append(payload[:0], opConsumerEOF)
	payload = binary.LittleEndian.AppendUint64(payload, id)
	_ = sess.out.Send(payload)
}

func appendDelivery(dst []byte, id uint64, d *broker.Delivery) []byte {
	dst = append(dst, opDeliver)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, d.Tag)
	dst = append(dst, boolByte(d.Redelivered))
	dst = appendString(dst, d.Queue)
	dst = appendString(dst, d.Exchange)
	dst = appendString(dst, d.RoutingKey)
	dst = appendHeaders(dst, d.Headers)
	return appendBytes(dst, d.Body)
}

// ListenAndServe is a convenience for cmd/brokerd: serve until the
// process exits.
func ListenAndServe(addr string, b *broker.Broker) error {
	srv := NewServer(b, log.Printf)
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	log.Printf("brokerd listening on %v", bound)
	select {} // run forever; the process is terminated externally
}
