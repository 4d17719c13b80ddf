package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistream/internal/broker"
	"bistream/internal/metrics"
)

// Typed errors surfaced by a reconnecting client. In-flight requests
// never hang on a dead connection: they fail with an error wrapping
// ErrConnLost, and the caller decides whether to retry (the client will
// be dialing in the background).
var (
	// ErrConnLost marks a request that failed because the connection to
	// brokerd dropped (or was never up). With Reconnect enabled the
	// client is re-dialing; retry later.
	ErrConnLost = errors.New("wire: connection lost")
	// ErrClientClosed marks a request issued after Close.
	ErrClientClosed = errors.New("wire: client closed")
	// ErrStaleDelivery marks an Ack/Nack for a delivery received over a
	// previous connection: the server already requeued it at disconnect,
	// so settling it here would target the wrong message.
	ErrStaleDelivery = errors.New("wire: stale delivery from a previous connection")
)

// Config configures Connect.
type Config struct {
	// Addr is the brokerd address ("host:port").
	Addr string
	// Addrs lists the members of a replicated broker set. When set it
	// takes precedence over Addr: dial attempts rotate round-robin
	// through the list (with the usual backoff between full passes),
	// and with more than one address each fresh connection is probed so
	// the client lands on the current leader — a follower answers
	// broker.ErrNotLeader and the client moves on to the next address.
	Addrs []string
	// Reconnect makes the client survive broker restarts: lost
	// connections are re-dialed with jittered exponential backoff, the
	// recorded topology (declares and binds) is replayed, and consumers
	// are re-attached. Without it the client dies with its connection,
	// as Dial always behaved.
	Reconnect bool
	// DialTimeout bounds one dial attempt. Default 2s.
	DialTimeout time.Duration
	// InitialBackoff and MaxBackoff bound the reconnect backoff ramp.
	// Defaults 50ms and 5s.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// Heartbeat enables a liveness probe: when no frame arrives for the
	// interval a ping is sent, and a connection silent for three
	// intervals is force-closed (detecting half-open TCP). Zero
	// disables.
	Heartbeat time.Duration
	// Seed makes the backoff jitter deterministic for tests; zero seeds
	// from the clock.
	Seed int64
	// Metrics optionally registers wire.connects / wire.disconnects /
	// wire.heartbeat_timeouts counters.
	Metrics *metrics.Registry
	// Logf reports reconnect-loop progress; nil discards.
	Logf func(string, ...any)
}

// Client is a broker.Client talking to a remote brokerd over TCP. It is
// safe for concurrent use: requests are correlated by id and deliveries
// are demultiplexed to per-consumer channels. The client assigns
// consumer ids itself and registers the consumer before sending the
// Consume request, so no delivery can race past registration.
//
// With Config.Reconnect the client owns the connection lifecycle: see
// Config. Deliveries received over a connection that subsequently died
// are dropped from the consumers' backlogs (the server requeued them),
// and settling one that had already been handed to the delivery channel
// fails with ErrStaleDelivery without reaching the server.
type Client struct {
	cfg Config
	gen atomic.Uint64 // connection generation, bumped per (re)connect

	connects          *metrics.Counter
	disconnects       *metrics.Counter
	heartbeatTimeouts *metrics.Counter

	lastRead atomic.Int64      // UnixNano of the last frame; kept for the heartbeat
	names    map[string]string // read loop only: interned queue, exchange and key names

	mu        sync.Mutex
	conn      net.Conn     // nil while disconnected
	out       *FrameWriter // conn's writer: concurrent requests share socket writes
	addrIdx   int          // index into cfg.Addrs of the live/last address
	rng       *rand.Rand
	nextReq   uint64
	nextCons  uint64
	pending   map[uint64]chan response
	consumers map[uint64]*remoteConsumer
	topo      []topoRecord
	closed    bool
	closeCh   chan struct{}
}

// topoRecord is one replayable topology operation, kept in issue order
// so replay reconstructs the same broker state after a restart.
type topoRecord struct {
	op    byte // 'e'xchange, 'q'ueue, 'b'ind
	name  string
	kind  broker.ExchangeKind
	opts  broker.QueueOptions
	queue string
	key   string
}

type response struct {
	err       error
	stats     broker.QueueStats
	published int // opPublishReply: the published prefix
	kind      byte
}

// Dial connects to a brokerd at addr with the legacy single-connection
// lifecycle: the client dies with its connection.
func Dial(addr string) (*Client, error) {
	return Connect(Config{Addr: addr})
}

// Connect creates a client per cfg. With Reconnect it keeps dialing
// (backoff between attempts) until the first connection succeeds, so a
// daemon supervised by Connect simply waits for its broker to come up;
// without Reconnect it makes exactly one attempt.
func Connect(cfg Config) (*Client, error) {
	c := newClient(cfg)
	cfg = c.cfg
	backoff := cfg.InitialBackoff
	for {
		conn, err := c.dialAny()
		if err == nil {
			c.install(conn)
			break
		}
		if !cfg.Reconnect {
			return nil, err
		}
		cfg.Logf("wire: dial %s: %v (retrying in %v)", c.addrsLabel(), err, backoff)
		select {
		case <-time.After(c.jitter(backoff)):
		case <-c.closeCh:
			return nil, ErrClientClosed
		}
		backoff = minDuration(2*backoff, cfg.MaxBackoff)
	}
	if cfg.Heartbeat > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// newClient fills cfg's defaults and returns a client with no
// connection yet; Connect dials and installs one.
func newClient(cfg Config) *Client {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.InitialBackoff <= 0 {
		cfg.InitialBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.Addrs) == 0 {
		cfg.Addrs = []string{cfg.Addr}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		names:     make(map[string]string),
		pending:   make(map[uint64]chan response),
		consumers: make(map[uint64]*remoteConsumer),
		closeCh:   make(chan struct{}),
	}
	if cfg.Metrics != nil {
		c.connects = cfg.Metrics.Counter("wire.connects")
		c.disconnects = cfg.Metrics.Counter("wire.disconnects")
		c.heartbeatTimeouts = cfg.Metrics.Counter("wire.heartbeat_timeouts")
	} else {
		c.connects = &metrics.Counter{}
		c.disconnects = &metrics.Counter{}
		c.heartbeatTimeouts = &metrics.Counter{}
	}
	return c
}

// addrsLabel names the broker set for log lines.
func (c *Client) addrsLabel() string {
	if len(c.cfg.Addrs) == 1 {
		return c.cfg.Addrs[0]
	}
	return strings.Join(c.cfg.Addrs, ",")
}

// dialAny tries each configured broker address once, starting from the
// last successful one, and returns the first connection that passes
// the leader probe. Multi-address sets are probed (see probeLeader) so
// a follower is skipped; a single-address config keeps the legacy
// behavior of trusting the connection as dialed.
func (c *Client) dialAny() (net.Conn, error) {
	c.mu.Lock()
	start := c.addrIdx
	c.mu.Unlock()
	n := len(c.cfg.Addrs)
	var lastErr error
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		addr := c.cfg.Addrs[idx]
		conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			if n > 1 {
				c.cfg.Logf("wire: dial %s: %v (trying next address)", addr, err)
			}
			continue
		}
		if n > 1 {
			if err := probeLeader(conn, c.cfg.DialTimeout); err != nil {
				conn.Close()
				lastErr = fmt.Errorf("%s: %w", addr, err)
				c.cfg.Logf("wire: probe %s: %v (trying next address)", addr, err)
				continue
			}
		}
		c.mu.Lock()
		c.addrIdx = idx
		c.mu.Unlock()
		return conn, nil
	}
	if lastErr == nil {
		lastErr = errors.New("wire: no broker addresses configured")
	}
	return nil, lastErr
}

// probeLeader round-trips a ping on a fresh, not-yet-installed
// connection. Correlation id 0 is reserved for the probe (regular
// requests start at 1), and the exchange happens before the read loop
// owns the socket, so the synchronous read cannot steal anyone's
// reply. A replication follower answers broker.ErrNotLeader here,
// which is the signal to try the next member of the broker set.
func probeLeader(conn net.Conn, timeout time.Duration) error {
	payload := []byte{opPing}
	payload = binary.LittleEndian.AppendUint64(payload, 0)
	conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if err := WriteFrame(conn, payload); err != nil {
		return err
	}
	frame, err := ReadFrame(conn)
	if err != nil {
		return err
	}
	if frame[0] != opReply { // ReadFrame never returns an empty frame
		return fmt.Errorf("wire: unexpected probe reply opcode %d", frame[0])
	}
	r := &reader{buf: frame[1:]}
	r.uint64() // echoed correlation id 0
	msg := r.string()
	if r.err != nil {
		return r.err
	}
	return remoteError(msg)
}

// jitter spreads a backoff delay uniformly over [d/2, d) so a fleet of
// clients does not reconnect in lockstep.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// install makes conn the live connection and starts its read loop.
func (c *Client) install(conn net.Conn) {
	gen := c.gen.Add(1)
	c.lastRead.Store(time.Now().UnixNano())
	c.mu.Lock()
	c.conn = conn
	c.out = NewFrameWriter(conn, 0, c.cfg.Metrics)
	cons := make([]*remoteConsumer, 0, len(c.consumers))
	for _, rc := range c.consumers {
		cons = append(cons, rc)
	}
	c.mu.Unlock()
	// Deliveries buffered from the dead connection were requeued by the
	// server at disconnect; drop them so the application never holds a
	// tag it cannot settle.
	for _, rc := range cons {
		rc.dropStale(gen)
	}
	c.connects.Inc()
	go c.readLoop(conn, gen)
}

// Close drops the connection and stops any reconnecting; outstanding
// requests fail and consumer channels close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closeCh)
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Generation reports how many connections the client has established;
// it increments on every successful (re)connect.
func (c *Client) Generation() uint64 { return c.gen.Load() }

// Connected reports whether a connection is currently live.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn != nil
}

func (c *Client) readLoop(conn net.Conn, gen uint64) {
	in := NewFrameReader(conn)
	var err error
	for {
		var frame []byte
		frame, err = in.Next()
		if err != nil {
			break
		}
		if c.cfg.Heartbeat > 0 {
			c.lastRead.Store(time.Now().UnixNano())
		}
		if err = c.dispatch(frame); err != nil {
			break
		}
	}
	conn.Close()
	c.connLost(conn, gen, err)
}

// connLost handles the death of the connection of generation gen:
// in-flight requests fail with ErrConnLost, and either the reconnect
// loop takes over or (legacy lifecycle / after Close) the client shuts
// down for good.
func (c *Client) connLost(conn net.Conn, gen uint64, cause error) {
	c.mu.Lock()
	if c.conn != conn {
		// A newer connection was already installed; nothing to do.
		c.mu.Unlock()
		return
	}
	c.conn, c.out = nil, nil
	closed := c.closed
	reconnect := c.cfg.Reconnect && !closed
	pend := c.pending
	c.pending = make(map[uint64]chan response)
	var cons []*remoteConsumer
	if !reconnect {
		for _, rc := range c.consumers {
			cons = append(cons, rc)
		}
		c.consumers = make(map[uint64]*remoteConsumer)
		c.closed = true
	}
	c.mu.Unlock()
	c.disconnects.Inc()
	for _, ch := range pend {
		ch <- response{err: fmt.Errorf("%w: %v", ErrConnLost, cause)}
	}
	if reconnect {
		c.cfg.Logf("wire: connection to %s lost: %v (reconnecting)", c.addrsLabel(), cause)
		go c.reconnectLoop()
		return
	}
	for _, rc := range cons {
		rc.finish()
	}
}

// reconnectLoop re-dials with jittered exponential backoff, then
// replays topology and re-attaches consumers. If the fresh connection
// dies during replay its own read loop reports connLost and spawns the
// next reconnectLoop, so this one never loops on replay failures.
func (c *Client) reconnectLoop() {
	backoff := c.cfg.InitialBackoff
	for {
		select {
		case <-c.closeCh:
			return
		case <-time.After(c.jitter(backoff)):
		}
		backoff = minDuration(2*backoff, c.cfg.MaxBackoff)
		conn, err := c.dialAny()
		if err != nil {
			c.cfg.Logf("wire: redial %s: %v", c.addrsLabel(), err)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.mu.Unlock()
		c.install(conn)
		c.cfg.Logf("wire: reconnected to %s", conn.RemoteAddr())
		c.replay()
		return
	}
}

// replay re-declares the recorded topology and re-attaches consumers on
// the current connection. Errors are logged, not fatal: a replay cut
// short by another disconnect is retried by the next reconnect.
func (c *Client) replay() {
	c.mu.Lock()
	topo := append([]topoRecord(nil), c.topo...)
	cons := make([]*remoteConsumer, 0, len(c.consumers))
	for _, rc := range c.consumers {
		cons = append(cons, rc)
	}
	c.mu.Unlock()
	for _, rec := range topo {
		var err error
		switch rec.op {
		case 'e':
			err = c.declareExchange(rec.name, rec.kind, false)
		case 'q':
			err = c.declareQueue(rec.name, rec.opts, false)
		case 'b':
			err = c.bind(rec.queue, rec.name, rec.key, false)
		}
		if err != nil {
			c.cfg.Logf("wire: topology replay: %v", err)
			return
		}
	}
	for _, rc := range cons {
		if err := c.attach(rc); err != nil {
			c.cfg.Logf("wire: consumer re-attach (queue %s): %v", rc.queue, err)
			return
		}
	}
}

// heartbeatLoop probes connection liveness. A connection that has
// delivered nothing for an interval gets a ping (the reply refreshes
// lastRead); one silent for three intervals is declared half-open and
// force-closed, which routes recovery through the reconnect loop.
func (c *Client) heartbeatLoop() {
	ticker := time.NewTicker(c.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-c.closeCh:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		idle := time.Since(time.Unix(0, c.lastRead.Load()))
		if conn == nil {
			continue
		}
		if idle >= 3*c.cfg.Heartbeat {
			c.heartbeatTimeouts.Inc()
			c.cfg.Logf("wire: heartbeat timeout after %v; dropping connection", idle)
			conn.Close() // readLoop notices and triggers connLost
			continue
		}
		if idle >= c.cfg.Heartbeat {
			go func() { _ = c.Ping() }()
		}
	}
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	payload, id := c.newRequest(opPing)
	return c.simpleCall(payload, id)
}

func (c *Client) dispatch(frame []byte) error {
	if len(frame) == 0 {
		return fmt.Errorf("wire: empty frame")
	}
	op := frame[0]
	r := &reader{buf: frame[1:], names: c.names}
	switch op {
	case opReply:
		reqID := r.uint64()
		msg := r.string()
		if r.err != nil {
			return r.err
		}
		c.complete(reqID, response{kind: opReply, err: remoteError(msg)})
	case opPublishReply:
		reqID := r.uint64()
		published := r.uvarint()
		msg := r.string()
		if r.err != nil {
			return r.err
		}
		if published > math.MaxInt32 {
			return fmt.Errorf("wire: published count %d out of range", published)
		}
		c.complete(reqID, response{kind: opPublishReply, err: remoteError(msg), published: int(published)})
	case opConsumeOK:
		reqID := r.uint64()
		if r.err != nil {
			return r.err
		}
		c.complete(reqID, response{kind: opConsumeOK})
	case opStatsReply:
		reqID := r.uint64()
		msg := r.string()
		st := r.stats()
		if r.err != nil {
			return r.err
		}
		c.complete(reqID, response{kind: opStatsReply, err: remoteError(msg), stats: st})
	case opDeliver:
		id := r.uint64()
		tag := r.uint64()
		redelivered := r.bool()
		queue := r.name()
		exchange := r.name()
		key := r.name()
		headers := r.headers()
		body := r.bytes()
		if r.err != nil {
			return r.err
		}
		c.mu.Lock()
		rc := c.consumers[id]
		c.mu.Unlock()
		if rc != nil {
			rc.push(broker.Delivery{
				Message: broker.Message{
					Exchange:   exchange,
					RoutingKey: key,
					Headers:    headers,
					Body:       body,
				},
				Queue:       queue,
				Tag:         tag,
				Redelivered: redelivered,
			}, c.gen.Load())
		}
	case opConsumerEOF:
		id := r.uint64()
		if r.err != nil {
			return r.err
		}
		c.mu.Lock()
		rc := c.consumers[id]
		delete(c.consumers, id)
		c.mu.Unlock()
		if rc != nil {
			rc.finish()
		}
	default:
		return fmt.Errorf("wire: unexpected opcode %d from server", op)
	}
	return nil
}

func (c *Client) complete(reqID uint64, resp response) {
	c.mu.Lock()
	ch := c.pending[reqID]
	delete(c.pending, reqID)
	c.mu.Unlock()
	if ch != nil {
		ch <- resp
	}
}

// remoteError maps an error string from the server back to the broker's
// sentinel errors where possible, so errors.Is keeps working across the
// wire.
func remoteError(msg string) error {
	if msg == "" {
		return nil
	}
	for _, sentinel := range []error{
		broker.ErrClosed, broker.ErrNoExchange, broker.ErrNoQueue,
		broker.ErrExchangeExists, broker.ErrQueueExists,
		broker.ErrConsumerClosed, broker.ErrUnknownDelivery,
		broker.ErrNotLeader,
	} {
		if strings.HasPrefix(msg, sentinel.Error()) {
			if msg == sentinel.Error() {
				return sentinel
			}
			return fmt.Errorf("%w%s", sentinel, strings.TrimPrefix(msg, sentinel.Error()))
		}
	}
	return errors.New(msg)
}

// call sends a request frame and waits for its correlated response.
// With no live connection it fails fast with ErrConnLost instead of
// hanging; the pending entry is registered while holding the lock that
// connLost drains under, so the response channel is always completed.
// Requests of concurrent callers leave in whatever socket write is next
// (see FrameWriter); a failed write closes the connection, which fails
// every pending call through connLost.
func (c *Client) call(payload []byte, reqID uint64) (response, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return response{}, ErrClientClosed
	}
	out := c.out
	if out == nil {
		c.mu.Unlock()
		return response{}, ErrConnLost
	}
	c.pending[reqID] = ch
	c.mu.Unlock()

	if err := out.Send(payload); err != nil {
		c.mu.Lock()
		_, mine := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if mine {
			return response{}, fmt.Errorf("%w: %v", ErrConnLost, err)
		}
		// connLost got there first and is completing ch.
	}
	return <-ch, nil
}

func (c *Client) newRequest(op byte) ([]byte, uint64) {
	c.mu.Lock()
	c.nextReq++
	id := c.nextReq
	c.mu.Unlock()
	// Room for the small requests outright; the batch encoders grow it
	// once, to their own estimate.
	payload := append(make([]byte, 0, 64), op)
	payload = binary.LittleEndian.AppendUint64(payload, id)
	return payload, id
}

func (c *Client) simpleCall(payload []byte, id uint64) error {
	resp, err := c.call(payload, id)
	if err != nil {
		return err
	}
	return resp.err
}

// record appends a topology record unless an identical one exists.
func (c *Client) record(rec topoRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.topo {
		if have == rec {
			return
		}
	}
	c.topo = append(c.topo, rec)
}

// DeclareExchange implements broker.Client.
func (c *Client) DeclareExchange(name string, kind broker.ExchangeKind) error {
	return c.declareExchange(name, kind, true)
}

func (c *Client) declareExchange(name string, kind broker.ExchangeKind, remember bool) error {
	payload, id := c.newRequest(opDeclareExchange)
	payload = appendString(payload, name)
	payload = append(payload, byte(kind))
	err := c.simpleCall(payload, id)
	if err == nil && remember && c.cfg.Reconnect {
		c.record(topoRecord{op: 'e', name: name, kind: kind})
	}
	return err
}

// DeclareQueue implements broker.Client.
func (c *Client) DeclareQueue(name string, opts broker.QueueOptions) error {
	return c.declareQueue(name, opts, true)
}

func (c *Client) declareQueue(name string, opts broker.QueueOptions, remember bool) error {
	payload, id := c.newRequest(opDeclareQueue)
	payload = appendString(payload, name)
	payload = append(payload, boolByte(opts.AutoDelete))
	payload = binary.AppendUvarint(payload, uint64(opts.MaxLen))
	payload = append(payload, boolByte(opts.Durable))
	payload = binary.AppendUvarint(payload, uint64(opts.MaxRedeliver+1))
	err := c.simpleCall(payload, id)
	if err == nil && remember && c.cfg.Reconnect {
		c.record(topoRecord{op: 'q', name: name, opts: opts})
	}
	return err
}

// DeleteQueue implements broker.Client.
func (c *Client) DeleteQueue(name string) error {
	payload, id := c.newRequest(opDeleteQueue)
	payload = appendString(payload, name)
	err := c.simpleCall(payload, id)
	if err == nil {
		c.mu.Lock()
		kept := c.topo[:0]
		for _, rec := range c.topo {
			if (rec.op == 'q' && rec.name == name) || (rec.op == 'b' && rec.queue == name) {
				continue
			}
			kept = append(kept, rec)
		}
		c.topo = kept
		c.mu.Unlock()
	}
	return err
}

// Bind implements broker.Client.
func (c *Client) Bind(queue, exchange, routingKey string) error {
	return c.bind(queue, exchange, routingKey, true)
}

func (c *Client) bind(queue, exchange, routingKey string, remember bool) error {
	payload, id := c.newRequest(opBind)
	payload = appendString(payload, queue)
	payload = appendString(payload, exchange)
	payload = appendString(payload, routingKey)
	err := c.simpleCall(payload, id)
	if err == nil && remember && c.cfg.Reconnect {
		c.record(topoRecord{op: 'b', queue: queue, name: exchange, key: routingKey})
	}
	return err
}

// Publish implements broker.Client. The call blocks until the server
// acknowledges routing, so broker backpressure propagates to the remote
// producer.
func (c *Client) Publish(exchange, routingKey string, headers map[string]string, body []byte) error {
	return c.PublishContext(context.Background(), exchange, routingKey, headers, body)
}

// PublishContext implements broker.ContextPublisher as a one-element
// PublishBatch; see there for how far cancellation reaches.
func (c *Client) PublishContext(ctx context.Context, exchange, routingKey string, headers map[string]string, body []byte) error {
	pubs := [1]broker.Publication{{Exchange: exchange, RoutingKey: routingKey, Headers: headers, Body: body}}
	_, err := c.PublishBatch(ctx, pubs[:])
	return err
}

// maxBatchBytes caps the publication bytes of one opPublishBatch frame,
// far below maxFrame; a larger batch travels as several frames, each
// awaited before the next is sent.
const maxBatchBytes = 1 << 20

// PublishBatch implements broker.BatchPublisher: the batch travels as
// one frame and costs one round trip, and the reply carries
// broker.PublishBatch's own answer — the published prefix and the error
// that stopped it, zero when the server's commit gate failed. A lost
// connection reports zero as well: nothing of the frame is confirmed.
//
// ctx is honoured until a frame is handed to the connection. After that
// the answer is the server's: abandoning a request already sent would
// report "not published" for messages that may well be, and the server
// cannot be told to stop.
func (c *Client) PublishBatch(ctx context.Context, pubs []broker.Publication) (int, error) {
	done := 0
	for done < len(pubs) {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		n, size := 0, 0
		for n == 0 || (done+n < len(pubs) && size < maxBatchBytes) {
			p := &pubs[done+n]
			size += len(p.Exchange) + len(p.RoutingKey) + len(p.Body) + 8
			n++
		}
		payload, id := c.newRequest(opPublishBatch)
		payload = slices.Grow(payload, size+binary.MaxVarintLen32)
		payload = appendPublications(payload, pubs[done:done+n])
		resp, err := c.call(payload, id)
		if err != nil {
			return done, err
		}
		done += min(resp.published, n)
		if resp.err != nil || resp.published < n {
			return done, resp.err
		}
	}
	return done, nil
}

// Consume implements broker.Client.
func (c *Client) Consume(queue string, prefetch int, autoAck bool) (broker.Consumer, error) {
	if prefetch < 1 {
		prefetch = 1
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.nextCons++
	consID := c.nextCons
	rc := newRemoteConsumer(c, consID, queue, prefetch, autoAck)
	c.consumers[consID] = rc
	c.mu.Unlock()

	if err := c.attach(rc); err != nil {
		c.mu.Lock()
		delete(c.consumers, consID)
		c.mu.Unlock()
		rc.finish()
		return nil, err
	}
	return rc, nil
}

// attach sends the Consume request for rc on the current connection;
// used both for the initial subscription and for re-attachment after a
// reconnect (same consumer id, so in-flight deliveries keep routing to
// the same channel).
func (c *Client) attach(rc *remoteConsumer) error {
	payload, id := c.newRequest(opConsume)
	payload = binary.LittleEndian.AppendUint64(payload, rc.id)
	payload = appendString(payload, rc.queue)
	payload = binary.AppendUvarint(payload, uint64(rc.prefetch))
	payload = append(payload, boolByte(rc.autoAck))
	resp, err := c.call(payload, id)
	if err == nil && resp.err != nil {
		err = resp.err
	}
	return err
}

// QueueStats implements broker.Client.
func (c *Client) QueueStats(queue string) (broker.QueueStats, error) {
	payload, id := c.newRequest(opQueueStats)
	payload = appendString(payload, queue)
	resp, err := c.call(payload, id)
	if err != nil {
		return broker.QueueStats{}, err
	}
	return resp.stats, resp.err
}

// remoteConsumer buffers deliveries without bound between the read loop
// and the application, so a slow application can never stall the
// client's read loop (which also carries request replies). The server
// side enforces prefetch, keeping the buffer small in practice. The
// delivery channel itself holds up to prefetch deliveries, as the
// in-process consumer's does: a batching consumer (broker.Drain) finds
// everything that has arrived, not just the one delivery the forwarder
// had in hand.
//
// The tags the application sees are the consumer's own, numbered once
// for its lifetime, not the server's: a restarted or newly elected
// broker numbers deliveries from scratch, so a server tag from the old
// connection can name a different message on the new one.
type remoteConsumer struct {
	c        *Client
	id       uint64
	queue    string
	prefetch int
	autoAck  bool
	ch       chan broker.Delivery
	dead     chan struct{} // closed on Cancel: the forwarder must not block
	once     sync.Once

	mu      sync.Mutex
	buf     []genDelivery
	lastTag uint64               // last local tag handed out
	tags    map[uint64]serverTag // local tag -> its server-side delivery
	eof     bool
	notify  chan struct{}
}

type genDelivery struct {
	d   broker.Delivery
	gen uint64
}

// serverTag names a delivery on the server: its tag there and the
// connection generation it arrived over.
type serverTag struct {
	tag, gen uint64
}

func newRemoteConsumer(c *Client, id uint64, queue string, prefetch int, autoAck bool) *remoteConsumer {
	rc := &remoteConsumer{
		c:        c,
		id:       id,
		queue:    queue,
		prefetch: prefetch,
		autoAck:  autoAck,
		ch:       make(chan broker.Delivery, prefetch),
		dead:     make(chan struct{}),
		tags:     make(map[uint64]serverTag),
		notify:   make(chan struct{}, 1),
	}
	go rc.forward()
	return rc
}

// push is called from the client's read loop; it never blocks. It
// swaps the server tag for a fresh local one.
func (rc *remoteConsumer) push(d broker.Delivery, gen uint64) {
	rc.mu.Lock()
	rc.lastTag++
	if !rc.autoAck {
		rc.tags[rc.lastTag] = serverTag{d.Tag, gen}
	}
	d.Tag = rc.lastTag
	rc.buf = append(rc.buf, genDelivery{d, gen})
	rc.mu.Unlock()
	rc.wake()
}

// dropStale discards buffered deliveries (and tag records) from
// connections older than gen: the server requeued them when the old
// connection died, so handing them out would let the application settle
// tags the new session does not know.
func (rc *remoteConsumer) dropStale(gen uint64) {
	rc.mu.Lock()
	kept := rc.buf[:0]
	for _, gd := range rc.buf {
		if gd.gen >= gen {
			kept = append(kept, gd)
		}
	}
	rc.buf = kept
	for tag, st := range rc.tags {
		if st.gen < gen {
			delete(rc.tags, tag)
		}
	}
	rc.mu.Unlock()
}

// finish marks end-of-stream; buffered deliveries still drain.
func (rc *remoteConsumer) finish() {
	rc.mu.Lock()
	rc.eof = true
	rc.mu.Unlock()
	rc.wake()
}

func (rc *remoteConsumer) wake() {
	select {
	case rc.notify <- struct{}{}:
	default:
	}
}

func (rc *remoteConsumer) forward() {
	var batch []genDelivery
	for {
		rc.mu.Lock()
		if len(rc.buf) == 0 {
			eof := rc.eof
			rc.mu.Unlock()
			if eof {
				close(rc.ch)
				return
			}
			select {
			case <-rc.notify:
			case <-rc.dead:
				close(rc.ch)
				return
			}
			continue
		}
		batch, rc.buf = rc.buf, batch[:0]
		rc.mu.Unlock()
		for i := range batch {
			if batch[i].gen < rc.c.gen.Load() {
				continue // went stale while buffered; the server requeued it
			}
			select {
			case rc.ch <- batch[i].d:
			case <-rc.dead:
				// Cancelled with an unread buffer and no reader: drop the
				// remainder rather than leak this goroutine. The server has
				// already settled or requeued as appropriate.
				close(rc.ch)
				return
			}
		}
		clear(batch) // drop the body references
	}
}

// Deliveries implements broker.Consumer.
func (rc *remoteConsumer) Deliveries() <-chan broker.Delivery { return rc.ch }

// settleableLocked maps a local tag to its server tag and checks it
// belongs to the current connection, forgetting it either way.
func (rc *remoteConsumer) settleableLocked(tag uint64) (uint64, bool) {
	st, ok := rc.tags[tag]
	delete(rc.tags, tag)
	return st.tag, ok && st.gen >= rc.c.gen.Load()
}

// Ack implements broker.Consumer as a one-element AckBatch.
func (rc *remoteConsumer) Ack(tag uint64) error {
	tags := [1]uint64{tag}
	return rc.AckBatch(tags[:])
}

// AckBatch implements broker.BatchAcker: one frame, one round trip.
// Tags of deliveries that arrived over a previous connection are never
// sent — the server already requeued those messages, and their server
// tag may meanwhile identify a different one — and make the call report
// ErrStaleDelivery; the rest settle regardless.
func (rc *remoteConsumer) AckBatch(tags []uint64) error {
	live := make([]uint64, 0, len(tags))
	rc.mu.Lock()
	for _, tag := range tags {
		if st, ok := rc.settleableLocked(tag); ok {
			live = append(live, st)
		}
	}
	rc.mu.Unlock()
	var stale error
	if len(live) < len(tags) {
		stale = ErrStaleDelivery
	}
	if len(live) == 0 {
		return stale
	}
	payload, id := rc.c.newRequest(opAckBatch)
	payload = slices.Grow(payload, 8+binary.MaxVarintLen32+8*len(live))
	payload = binary.LittleEndian.AppendUint64(payload, rc.id)
	payload = appendTags(payload, live)
	if err := rc.c.simpleCall(payload, id); err != nil {
		return err
	}
	return stale
}

// Nack implements broker.Consumer; see Ack for stale-delivery handling.
func (rc *remoteConsumer) Nack(tag uint64, requeue bool) error {
	rc.mu.Lock()
	st, live := rc.settleableLocked(tag)
	rc.mu.Unlock()
	if !live {
		return ErrStaleDelivery
	}
	payload, id := rc.c.newRequest(opNack)
	payload = binary.LittleEndian.AppendUint64(payload, rc.id)
	payload = binary.LittleEndian.AppendUint64(payload, st)
	payload = append(payload, boolByte(requeue))
	return rc.c.simpleCall(payload, id)
}

// Cancel implements broker.Consumer. Local teardown happens even when
// the connection is down (the server side was torn down with it).
func (rc *remoteConsumer) Cancel() error {
	payload, id := rc.c.newRequest(opCancel)
	payload = binary.LittleEndian.AppendUint64(payload, rc.id)
	err := rc.c.simpleCall(payload, id)
	rc.c.mu.Lock()
	delete(rc.c.consumers, rc.id)
	rc.c.mu.Unlock()
	rc.once.Do(func() { close(rc.dead) })
	rc.finish()
	if errors.Is(err, ErrConnLost) || errors.Is(err, ErrClientClosed) {
		return nil // nothing to cancel server-side; local teardown done
	}
	return err
}
