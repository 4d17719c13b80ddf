package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bistream/internal/broker"
)

func batchOf(ex, key string, bodies ...string) []broker.Publication {
	pubs := make([]broker.Publication, len(bodies))
	for i, b := range bodies {
		pubs[i] = broker.Publication{Exchange: ex, RoutingKey: key, Body: []byte(b)}
	}
	return pubs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startDurablePair is startPair over a journaled broker, whose publishes
// draw LSNs and therefore pass through a commit gate when one is set.
func startDurablePair(t *testing.T) (*broker.Broker, *Server, *Client) {
	t.Helper()
	b, err := broker.NewDurable(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		b.Close()
	})
	mustNil(t, c.DeclareExchange("ex", broker.Direct))
	mustNil(t, c.DeclareQueue("q", broker.QueueOptions{Durable: true}))
	mustNil(t, c.Bind("q", "ex", "k"))
	return b, srv, c
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublishBatchPrefixSurvivesTheWire: the reply carries
// broker.PublishBatch's own answer, the published prefix and the error
// that stopped it.
func TestPublishBatchPrefixSurvivesTheWire(t *testing.T) {
	b, c := startPair(t)
	mustNil(t, c.DeclareExchange("ex", broker.Direct))
	mustNil(t, c.DeclareQueue("q", broker.QueueOptions{}))
	mustNil(t, c.Bind("q", "ex", "k"))
	pubs := append(batchOf("ex", "k", "0", "1"), batchOf("missing", "k", "2")...)
	pubs = append(pubs, batchOf("ex", "k", "3")...)
	n, err := c.PublishBatch(context.Background(), pubs)
	if n != 2 || !errors.Is(err, broker.ErrNoExchange) {
		t.Fatalf("PublishBatch = (%d, %v); want (2, ErrNoExchange)", n, err)
	}
	if st, _ := b.QueueStats("q"); st.Published != 2 {
		t.Fatalf("queue holds %d messages; want the prefix of 2", st.Published)
	}
	if n, err := c.PublishBatch(context.Background(), nil); n != 0 || err != nil {
		t.Fatalf("empty PublishBatch = (%d, %v)", n, err)
	}
}

// TestPublishBatchParksOnMaxLen: MaxLen is honoured per message of a
// batch, and the parked batch completes in full once there is room.
func TestPublishBatchParksOnMaxLen(t *testing.T) {
	b, c := startPair(t)
	mustNil(t, c.DeclareExchange("ex", broker.Direct))
	mustNil(t, c.DeclareQueue("q", broker.QueueOptions{MaxLen: 2}))
	mustNil(t, c.Bind("q", "ex", "k"))
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := c.PublishBatch(context.Background(), batchOf("ex", "k", "0", "1", "2", "3"))
		done <- result{n, err}
	}()
	waitFor(t, "the batch to fill the queue", func() bool {
		st, _ := b.QueueStats("q")
		return st.Published == 2
	})
	select {
	case r := <-done:
		t.Fatalf("PublishBatch returned (%d, %v) with the queue full", r.n, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	// Drain in-process: the publisher's own connection is parked with it.
	cons, err := b.Consume("q", 1, false)
	mustNil(t, err)
	for i := 0; i < 4; i++ {
		d := <-cons.Deliveries()
		if string(d.Body) != fmt.Sprint(i) {
			t.Fatalf("delivery %d = %q", i, d.Body)
		}
		mustNil(t, cons.Ack(d.Tag))
	}
	if r := <-done; r.n != 4 || r.err != nil {
		t.Fatalf("PublishBatch = (%d, %v); want (4, nil)", r.n, r.err)
	}
}

// TestPublishBatchCommitGateFailureReportsZero: a failed quorum wait
// fails the batch as a whole, although the messages are enqueued.
func TestPublishBatchCommitGateFailureReportsZero(t *testing.T) {
	b, _, c := startDurablePair(t)
	noQuorum := errors.New("no quorum")
	b.SetCommitGate(func(context.Context, uint64) error { return noQuorum })
	n, err := c.PublishBatch(context.Background(), batchOf("ex", "k", "0", "1", "2"))
	if n != 0 || err == nil || err.Error() != noQuorum.Error() {
		t.Fatalf("PublishBatch = (%d, %v); want (0, %v)", n, err, noQuorum)
	}
	if st, _ := b.QueueStats("q"); st.Published != 3 {
		t.Fatalf("queue holds %d messages; want all 3 (enqueued, unconfirmed)", st.Published)
	}
	// A batch that stopped short and then fails the gate is zero too.
	pubs := append(batchOf("ex", "k", "3"), batchOf("missing", "k", "4")...)
	if n, err := c.PublishBatch(context.Background(), pubs); n != 0 || err == nil || err.Error() != noQuorum.Error() {
		t.Fatalf("short PublishBatch = (%d, %v); want (0, %v)", n, err, noQuorum)
	}
}

// TestConnectionCutFailsEveryPendingBatch: publishes awaiting their
// quorum when the connection dies all report zero and ErrConnLost, and
// none hangs.
func TestConnectionCutFailsEveryPendingBatch(t *testing.T) {
	b, srv, c := startDurablePair(t)
	var waiting atomic.Int32
	b.SetCommitGate(func(ctx context.Context, _ uint64) error {
		waiting.Add(1)
		<-ctx.Done() // the session's context ends at teardown
		return ctx.Err()
	})
	type result struct {
		n   int
		err error
	}
	const callers = 5
	results := make(chan result, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			n, err := c.PublishBatch(context.Background(), batchOf("ex", "k", fmt.Sprint(i), "x", "y"))
			results <- result{n, err}
		}(i)
	}
	// All five are journaled while none is answered: the read loop does
	// not wait for a quorum.
	waitFor(t, "every batch to be enqueued", func() bool {
		st, _ := b.QueueStats("q")
		return st.Published == 3*callers
	})
	waitFor(t, "a quorum wait to be in flight", func() bool { return waiting.Load() > 0 })
	srv.Close()
	for i := 0; i < callers; i++ {
		select {
		case r := <-results:
			if r.n != 0 || !errors.Is(r.err, ErrConnLost) {
				t.Errorf("PublishBatch = (%d, %v); want (0, ErrConnLost)", r.n, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a pending PublishBatch hung after the connection was cut")
		}
	}
}

// TestPublishOrderKeptWhileRepliesAreDeferred: a connection's publishes
// enqueue in the order they were sent even though none of them has been
// answered yet — and all of them are answered by one commit.
func TestPublishOrderKeptWhileRepliesAreDeferred(t *testing.T) {
	b, _, c := startDurablePair(t)
	commit := make(chan struct{})
	b.SetCommitGate(func(ctx context.Context, _ uint64) error {
		select {
		case <-commit:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	const senders, per = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		bodies := make([]string, per)
		for j := range bodies {
			bodies[j] = fmt.Sprint(i*per + j)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := c.PublishBatch(context.Background(), batchOf("ex", "k", bodies...)); n != per || err != nil {
				errs <- fmt.Errorf("PublishBatch = (%d, %v)", n, err)
			}
		}()
		// The next sender goes only once this batch is on the queue, its
		// reply still outstanding: send order is i = 0, 1, 2, ...
		waitFor(t, "the batch to be enqueued", func() bool {
			st, _ := b.QueueStats("q")
			return st.Published == int64((i+1)*per)
		})
	}
	close(commit)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cons, err := c.Consume("q", senders*per, true)
	mustNil(t, err)
	for i := 0; i < senders*per; i++ {
		select {
		case d := <-cons.Deliveries():
			if string(d.Body) != fmt.Sprint(i) {
				t.Fatalf("queue position %d holds %q: publish order lost", i, d.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at delivery %d", i)
		}
	}
}

// TestAckBatchFiltersStaleGenerations: tags from a previous connection
// are never sent; the batch reports ErrStaleDelivery and the current
// connection's tags settle all the same.
func TestAckBatchFiltersStaleGenerations(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	srv := NewServer(b, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	mustNil(t, err)
	defer srv.Close()
	c, err := Connect(fastReconnect(addr.String()))
	mustNil(t, err)
	defer c.Close()
	mustNil(t, c.DeclareExchange("ex", broker.Direct))
	mustNil(t, c.DeclareQueue("q", broker.QueueOptions{}))
	mustNil(t, c.Bind("q", "ex", "k"))
	cons, err := c.Consume("q", 16, false)
	mustNil(t, err)
	receive := func(n int) []uint64 {
		t.Helper()
		tags := make([]uint64, 0, n)
		for len(tags) < n {
			select {
			case d := <-cons.Deliveries():
				tags = append(tags, d.Tag)
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out after %d of %d deliveries", len(tags), n)
			}
		}
		return tags
	}
	if n, err := c.PublishBatch(context.Background(), batchOf("ex", "k", "a", "b", "c")); n != 3 || err != nil {
		t.Fatalf("PublishBatch = (%d, %v)", n, err)
	}
	stale := receive(3)

	// Cut the connection under the client; the server requeues the three
	// and the re-attached consumer gets them again under fresh tags.
	gen := c.Generation()
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	waitFor(t, "the client to reconnect", func() bool { return c.Generation() > gen && c.Connected() })
	fresh := receive(3)

	mixed := []uint64{stale[0], fresh[0], stale[1], fresh[1], stale[2]}
	if err := cons.(broker.BatchAcker).AckBatch(mixed); !errors.Is(err, ErrStaleDelivery) {
		t.Fatalf("AckBatch(mixed) = %v; want ErrStaleDelivery", err)
	}
	waitFor(t, "the two fresh tags to settle", func() bool {
		st, _ := b.QueueStats("q")
		return st.Acked == 2 && st.Unacked == 1
	})
	if err := cons.(broker.BatchAcker).AckBatch(stale); !errors.Is(err, ErrStaleDelivery) {
		t.Fatalf("AckBatch(stale only) = %v; want ErrStaleDelivery", err)
	}
	mustNil(t, cons.Ack(fresh[2]))
	if st, _ := b.QueueStats("q"); st.Acked != 3 || st.Unacked != 0 {
		t.Fatalf("stats = %+v; want 3 acked, none outstanding", st)
	}
}

// --- deterministic perf pins: socket writes per batch (make perf-pins) ---

// countingConn counts the Write calls on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.writes}, nil
}

// startCountedPair connects a client to a server over loopback with both
// directions' socket writes counted.
func startCountedPair(t *testing.T) (b *broker.Broker, c *Client, clientWrites, serverWrites *atomic.Int64) {
	t.Helper()
	clientWrites, serverWrites = new(atomic.Int64), new(atomic.Int64)
	b = broker.New(nil)
	srv := NewServer(b, t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	mustNil(t, err)
	srv.Serve(countingListener{ln, serverWrites})
	conn, err := net.Dial("tcp", ln.Addr().String())
	mustNil(t, err)
	c = newClient(Config{})
	c.install(countingConn{conn, clientWrites})
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		b.Close()
	})
	mustNil(t, c.DeclareExchange("ex", broker.Direct))
	mustNil(t, c.DeclareQueue("q", broker.QueueOptions{}))
	mustNil(t, c.Bind("q", "ex", "k"))
	return b, c, clientWrites, serverWrites
}

func TestPublishBatchSocketWrites(t *testing.T) {
	_, c, cw, sw := startCountedPair(t)
	bodies := make([]string, 128)
	for i := range bodies {
		bodies[i] = fmt.Sprintf("message-%03d", i)
	}
	pubs := batchOf("ex", "k", bodies...)
	cw0, sw0 := cw.Load(), sw.Load()
	if n, err := c.PublishBatch(context.Background(), pubs); n != len(pubs) || err != nil {
		t.Fatalf("PublishBatch = (%d, %v)", n, err)
	}
	if got := cw.Load() - cw0; got != 1 {
		t.Errorf("a %d-publication batch took %d client socket writes; want exactly 1", len(pubs), got)
	}
	if got := sw.Load() - sw0; got != 1 {
		t.Errorf("its reply took %d server socket writes; want exactly 1", got)
	}
}

func TestAckBatchSocketWrites(t *testing.T) {
	_, c, cw, sw := startCountedPair(t)
	const n = 512
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = fmt.Sprint(i)
	}
	if got, err := c.PublishBatch(context.Background(), batchOf("ex", "k", bodies...)); got != n || err != nil {
		t.Fatalf("PublishBatch = (%d, %v)", got, err)
	}
	cons, err := c.Consume("q", n, false)
	mustNil(t, err)
	tags := make([]uint64, 0, n)
	for len(tags) < n {
		select {
		case d := <-cons.Deliveries():
			tags = append(tags, d.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d deliveries", len(tags))
		}
	}
	cw0, sw0 := cw.Load(), sw.Load()
	mustNil(t, cons.(broker.BatchAcker).AckBatch(tags))
	if got := cw.Load() - cw0; got != 1 {
		t.Errorf("a %d-tag AckBatch took %d client socket writes; want exactly 1", n, got)
	}
	if got := sw.Load() - sw0; got != 1 {
		t.Errorf("its reply took %d server socket writes; want exactly 1", got)
	}
}

func TestDeliveriesSocketWrites(t *testing.T) {
	_, c, _, sw := startCountedPair(t)
	const n = 512
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = fmt.Sprint(i)
	}
	if got, err := c.PublishBatch(context.Background(), batchOf("ex", "k", bodies...)); got != n || err != nil {
		t.Fatalf("PublishBatch = (%d, %v)", got, err)
	}
	sw0 := sw.Load()
	cons, err := c.Consume("q", n, false)
	mustNil(t, err)
	for i := 0; i < n; i++ {
		select {
		case d := <-cons.Deliveries():
			if string(d.Body) != fmt.Sprint(i) {
				t.Fatalf("delivery %d = %q", i, d.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at delivery %d", i)
		}
	}
	// One write carries the Consume reply; the broker's dispatcher hands
	// the consumer runs of 64, and a write carries at least one run.
	if got := sw.Load() - sw0; got > 1+8 {
		t.Errorf("%d queued deliveries reached the client in %d server socket writes; want <= 9", n, got)
	}
}
