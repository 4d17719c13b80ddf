package broker

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func pubsTo(ex, key string, ids ...int) []Publication {
	pubs := make([]Publication, len(ids))
	for i, id := range ids {
		pubs[i] = Publication{Exchange: ex, RoutingKey: key, Body: idBody(id)}
	}
	return pubs
}

// TestPublishBatchStopsAtFirstFailure: publications before the failing
// one are enqueued, the count names the failing one, nothing after it is
// published.
func TestPublishBatchStopsAtFirstFailure(t *testing.T) {
	b := newTestBroker(t)
	declareBound(t, b, "ex", "q", QueueOptions{})
	pubs := pubsTo("ex", "k", 0, 1, 2, 3)
	pubs[2].Exchange = "nowhere"
	n, err := b.PublishBatch(context.Background(), pubs)
	if n != 2 || !errors.Is(err, ErrNoExchange) {
		t.Fatalf("PublishBatch = %d, %v; want 2, ErrNoExchange", n, err)
	}
	if st, _ := b.QueueStats("q"); st.Ready != 2 || st.Published != 2 {
		t.Fatalf("stats after failed batch = %+v, want 2 ready", st)
	}
}

// TestPublishBatchHonoursMaxLenPerMessage: a batch larger than the
// bound is admitted message by message as the consumer settles, the
// backlog never exceeds MaxLen, and order is kept.
func TestPublishBatchHonoursMaxLenPerMessage(t *testing.T) {
	const maxLen, total = 3, 40
	b := newTestBroker(t)
	declareBound(t, b, "ex", "q", QueueOptions{MaxLen: maxLen})
	ids := make([]int, total)
	for i := range ids {
		ids[i] = i
	}
	done := make(chan error, 1)
	go func() {
		n, err := b.PublishBatch(context.Background(), pubsTo("ex", "k", ids...))
		if err == nil && n != total {
			err = fmt.Errorf("published %d of %d", n, total)
		}
		done <- err
	}()
	waitFor(t, 2*time.Second, func() bool { st, _ := b.QueueStats("q"); return st.Ready == maxLen })
	select {
	case err := <-done:
		t.Fatalf("batch returned (%v) with the queue full and nothing consumed", err)
	case <-time.After(20 * time.Millisecond):
	}
	c, err := b.Consume("q", 2, false)
	mustNil(t, err)
	for i := 0; i < total; i++ {
		d := drain(t, c, 1, 2*time.Second)[0]
		if st, _ := b.QueueStats("q"); st.Ready+st.Unacked > maxLen {
			t.Fatalf("backlog %d exceeds MaxLen %d", st.Ready+st.Unacked, maxLen)
		}
		if string(d.Body) != string(idBody(i)) {
			t.Fatalf("delivery %d out of order", i)
		}
		mustNil(t, c.Ack(d.Tag))
	}
	mustNil(t, <-done)
}

// TestPublishBatchCancelledMidBatch: a context cancelled while the
// bound blocks the batch reports how far it got.
func TestPublishBatchCancelledMidBatch(t *testing.T) {
	b := newTestBroker(t)
	declareBound(t, b, "ex", "q", QueueOptions{MaxLen: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		n, err := b.PublishBatch(ctx, pubsTo("ex", "k", 0, 1, 2, 3))
		if !errors.Is(err, context.Canceled) {
			n = -1
		}
		done <- n
	}()
	waitFor(t, 2*time.Second, func() bool { st, _ := b.QueueStats("q"); return st.Ready == 2 })
	cancel()
	select {
	case n := <-done:
		if n != 2 {
			t.Fatalf("cancelled batch reported %d published, want 2 (and context.Canceled)", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled batch still blocked")
	}
}

// TestPublishBatchJournalsAndGatesLikePublish: on a durable broker a
// batch journals one enqueue record per message (they survive a restart
// in order) and the replication gate is consulted once, with the batch's
// highest LSN.
func TestPublishBatchJournalsAndGatesLikePublish(t *testing.T) {
	dir := t.TempDir()
	b := durableBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	var gated []uint64
	b.SetCommitGate(func(_ context.Context, lsn uint64) error {
		gated = append(gated, lsn)
		return nil
	})
	before := b.LastLSN()
	n, err := b.PublishBatch(context.Background(), pubsTo("ex", "k", 0, 1, 2))
	if n != 3 || err != nil {
		t.Fatalf("PublishBatch = %d, %v", n, err)
	}
	if after := b.LastLSN(); after != before+3 || len(gated) != 1 || gated[0] != after {
		t.Fatalf("LSN %d → %d, gate calls %v; want three records and one gate call at the last", before, after, gated)
	}
	mustNil(t, b.Close())
	b = durableBroker(t, dir)
	c, err := b.Consume("q", 8, false)
	mustNil(t, err)
	for i, d := range drain(t, c, 3, 2*time.Second) {
		if string(d.Body) != string(idBody(i)) {
			t.Fatalf("recovered message %d out of order", i)
		}
	}
}

// kthFailClient is a Client without the batch capability whose k-th
// Publish fails.
type kthFailClient struct {
	Client
	k, calls int
}

func (c *kthFailClient) Publish(exchange, key string, h map[string]string, body []byte) error {
	if c.calls++; c.calls == c.k {
		return errors.New("injected")
	}
	return c.Client.Publish(exchange, key, h, body)
}

// TestBatchFallbacks: clients and consumers without the batch
// capabilities are driven one operation at a time with the same
// contract.
func TestBatchFallbacks(t *testing.T) {
	b := newTestBroker(t)
	declareBound(t, b, "ex", "q", QueueOptions{})
	n, err := PublishBatch(context.Background(), &kthFailClient{Client: b, k: 3}, pubsTo("ex", "k", 0, 1, 2, 3))
	if n != 2 || err == nil {
		t.Fatalf("fallback PublishBatch = %d, %v; want 2 and the injected error", n, err)
	}
	if st, _ := b.QueueStats("q"); st.Ready != 2 {
		t.Fatalf("ready = %d, want 2", st.Ready)
	}
	c, err := b.Consume("q", 4, false)
	mustNil(t, err)
	ds := drain(t, c, 2, time.Second)
	plain := struct{ Consumer }{c} // hides AckBatch
	if err := AckBatch(plain, []uint64{ds[0].Tag, 999, ds[1].Tag}); !errors.Is(err, ErrUnknownDelivery) {
		t.Fatalf("fallback AckBatch error = %v, want ErrUnknownDelivery", err)
	}
	if st, _ := b.QueueStats("q"); st.Acked != 2 || st.Unacked != 0 {
		t.Fatalf("stats = %+v: an unknown tag must not stop the rest settling", st)
	}
}

// TestCancelWithLargeUnackedWindow: a checkpointing joiner holds
// thousands of deliveries unacked per queue, up to MaxPrefetch;
// cancelling such a consumer must requeue them in delivery order,
// flagged redelivered, without stalling the queue's publishers behind a
// long hold of its lock.
func TestCancelWithLargeUnackedWindow(t *testing.T) {
	const n = MaxPrefetch
	b := newTestBroker(t)
	declareBound(t, b, "ex", "q", QueueOptions{MaxRedeliver: -1})
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	_, err := b.PublishBatch(context.Background(), pubsTo("ex", "k", ids...))
	mustNil(t, err)
	c, err := b.Consume("q", n, false)
	mustNil(t, err)
	// Receive all but a tail that stays buffered in the channel, and
	// settle a scattering so the window has holes.
	ds := drain(t, c, n-1000, 10*time.Second)
	acked := map[int]bool{}
	for i := 0; i < len(ds); i += 97 {
		mustNil(t, c.Ack(ds[i].Tag))
		acked[i] = true
	}
	waitFor(t, 5*time.Second, func() bool { st, _ := b.QueueStats("q"); return st.Ready == 0 })

	start := time.Now()
	mustNil(t, c.Cancel())
	took := time.Since(start)
	t.Logf("cancel with %d unacked took %v", n, took)
	if took > 100*time.Millisecond {
		t.Errorf("Cancel with %d unacked took %v, want under 100ms", n, took)
	}
	if st, _ := b.QueueStats("q"); st.Ready != n-len(acked) || st.Unacked != 0 {
		t.Fatalf("after cancel: %+v, want %d ready", st, n-len(acked))
	}
	c2, err := b.Consume("q", n, false)
	mustNil(t, err)
	next := 0
	for _, d := range drain(t, c2, n-len(acked), 10*time.Second) {
		for acked[next] {
			next++
		}
		if string(d.Body) != string(idBody(next)) || !d.Redelivered {
			t.Fatalf("requeued delivery: got %v redelivered=%v, want id %d redelivered", d.Body, d.Redelivered, next)
		}
		next++
	}
}

// TestConsumeClampsPrefetch: a prefetch far beyond MaxPrefetch — one a
// remote client can put in a 25-byte frame — is clamped instead of
// sizing the delivery channel by it, and the consumer works.
func TestConsumeClampsPrefetch(t *testing.T) {
	b := newTestBroker(t)
	declareBound(t, b, "ex", "q", QueueOptions{})
	c, err := b.Consume("q", 1<<40, false)
	mustNil(t, err)
	if got := cap(c.Deliveries()); got != MaxPrefetch {
		t.Fatalf("delivery channel holds %d, want MaxPrefetch = %d", got, MaxPrefetch)
	}
	mustNil(t, b.Publish("ex", "k", nil, []byte("m")))
	d := drain(t, c, 1, 5*time.Second)[0]
	if string(d.Body) != "m" {
		t.Fatalf("delivered %q, want %q", d.Body, "m")
	}
	mustNil(t, c.Ack(d.Tag))
}

// TestMessagePathAllocations pins the steady-state allocation counts of
// the in-process message path; make check runs it as the deterministic
// perf gate (allocation counts repeat exactly, timings do not).
func TestMessagePathAllocations(t *testing.T) {
	b := newTestBroker(t)
	mustNil(t, b.DeclareExchange("ex", Topic))
	for i, key := range []string{"m.0", "m.1", "punct", "m.*", "#.x"} {
		q := fmt.Sprint("q", i)
		mustNil(t, b.DeclareQueue(q, QueueOptions{}))
		mustNil(t, b.Bind(q, "ex", key))
	}
	ex := b.exchanges["ex"]
	ex.targets("m.1") // compile
	var routed atomic.Int64
	if got := testing.AllocsPerRun(1000, func() { routed.Add(int64(len(ex.targets("m.1")))) }); got != 0 {
		t.Errorf("compiled route lookup allocates %v per call, want 0", got)
	}
	if routed.Load() != 2*1001 {
		t.Fatalf("m.1 routed to %d queues in total, want two (m.1 and m.*) per lookup", routed.Load())
	}

	declareBound(t, b, "one", "solo", QueueOptions{})
	c, err := b.Consume("solo", 16, false)
	mustNil(t, err)
	body := []byte("payload")
	roundTrip := func() {
		if err := b.Publish("one", "k", nil, body); err != nil {
			t.Fatal(err)
		}
		d := <-c.Deliveries()
		if err := c.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip() // warm the ring, the window and the route table
	}
	if got := testing.AllocsPerRun(1000, roundTrip); got > 2 {
		t.Errorf("publish → deliver → ack allocates %v per message on a warm queue, want at most 2", got)
	}
}
