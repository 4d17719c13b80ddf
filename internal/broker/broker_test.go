package broker

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	b := New(nil)
	t.Cleanup(func() { b.Close() })
	return b
}

func declare(t *testing.T, b *Broker, exchange string, kind ExchangeKind, queues ...string) {
	t.Helper()
	if err := b.DeclareExchange(exchange, kind); err != nil {
		t.Fatal(err)
	}
	for _, q := range queues {
		if err := b.DeclareQueue(q, QueueOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := b.Bind(q, exchange, "#"); err != nil {
			t.Fatal(err)
		}
	}
}

func drain(t *testing.T, c Consumer, n int, timeout time.Duration) []Delivery {
	t.Helper()
	out := make([]Delivery, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case d, ok := <-c.Deliveries():
			if !ok {
				t.Fatalf("consumer closed after %d/%d deliveries", len(out), n)
			}
			out = append(out, d)
		case <-deadline:
			t.Fatalf("timed out after %d/%d deliveries", len(out), n)
		}
	}
	return out
}

func TestPublishConsumeRoundTrip(t *testing.T) {
	b := newTestBroker(t)
	declare(t, b, "ex", Topic, "q")
	if err := b.Publish("ex", "k", map[string]string{"h": "v"}, []byte("body")); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	d := drain(t, c, 1, time.Second)[0]
	if string(d.Body) != "body" || d.Headers["h"] != "v" || d.RoutingKey != "k" || d.Queue != "q" {
		t.Errorf("delivery = %+v", d)
	}
	if err := c.Ack(d.Tag); err != nil {
		t.Fatal(err)
	}
	st, _ := b.QueueStats("q")
	if st.Acked != 1 || st.Ready != 0 || st.Unacked != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueueFIFOPerConsumer(t *testing.T) {
	// Pairwise FIFO (Definition 8): a single consumer sees messages in
	// publish order.
	b := newTestBroker(t)
	declare(t, b, "ex", Fanout, "q")
	c, _ := b.Consume("q", 16, true)
	const n = 500
	for i := 0; i < n; i++ {
		if err := b.Publish("ex", "", nil, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	ds := drain(t, c, n, 5*time.Second)
	for i, d := range ds {
		if string(d.Body) != fmt.Sprint(i) {
			t.Fatalf("delivery %d = %q", i, d.Body)
		}
	}
}

func TestCompetingConsumersPartitionAndPreserveOrder(t *testing.T) {
	// The queuing model: each message goes to exactly one group member,
	// and each member sees an order-preserving subsequence.
	b := newTestBroker(t)
	declare(t, b, "ex", Direct, "")
	if err := b.DeclareQueue("group", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("group", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	// Manual acks and a prefetch of 4: a consumer holds at most four
	// unacknowledged messages, so once both windows are full — before
	// any collector runs — each member is bound to get a share, however
	// the dispatcher goroutines are scheduled.
	const prefetch = 4
	c1, _ := b.Consume("group", prefetch, false)
	c2, _ := b.Consume("group", prefetch, false)
	const n = 400
	for i := 0; i < n; i++ {
		if err := b.Publish("ex", "k", nil, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		st, _ := b.QueueStats("group")
		return st.Unacked == 2*prefetch
	})
	var got1, got2 []int
	var received atomic.Int64
	var wg sync.WaitGroup
	collect := func(c Consumer, out *[]int) {
		defer wg.Done()
		for d := range c.Deliveries() {
			var v int
			fmt.Sscan(string(d.Body), &v)
			*out = append(*out, v)
			received.Add(1)
			if err := c.Ack(d.Tag); err != nil {
				t.Error(err)
			}
		}
	}
	wg.Add(2)
	go collect(c1, &got1)
	go collect(c2, &got2)
	waitFor(t, 5*time.Second, func() bool {
		st, _ := b.QueueStats("group")
		return st.Acked == n && received.Load() == n
	})
	c1.Cancel()
	c2.Cancel()
	wg.Wait()
	if len(got1)+len(got2) != n {
		t.Fatalf("got %d + %d deliveries, want %d", len(got1), len(got2), n)
	}
	if len(got1) == 0 || len(got2) == 0 {
		t.Errorf("load balancing failed: %d vs %d", len(got1), len(got2))
	}
	seen := map[int]bool{}
	for _, g := range [][]int{got1, got2} {
		for i := 1; i < len(g); i++ {
			if g[i-1] >= g[i] {
				t.Fatalf("subsequence out of order: %d before %d", g[i-1], g[i])
			}
		}
		for _, v := range g {
			if seen[v] {
				t.Fatalf("message %d delivered twice", v)
			}
			seen[v] = true
		}
	}
}

func TestPublishSubscribeBroadcast(t *testing.T) {
	// Two queues bound to the same topic exchange both receive every
	// matching message (the join-stream broadcast pattern).
	b := newTestBroker(t)
	declare(t, b, "Rjoin", Topic, "Rjoin.s1", "Rjoin.s2")
	c1, _ := b.Consume("Rjoin.s1", 8, true)
	c2, _ := b.Consume("Rjoin.s2", 8, true)
	for i := 0; i < 10; i++ {
		b.Publish("Rjoin", "tuple", nil, []byte{byte(i)})
	}
	d1 := drain(t, c1, 10, time.Second)
	d2 := drain(t, c2, 10, time.Second)
	for i := 0; i < 10; i++ {
		if d1[i].Body[0] != byte(i) || d2[i].Body[0] != byte(i) {
			t.Fatalf("broadcast order broken at %d", i)
		}
	}
}

func TestDirectExchangeRouting(t *testing.T) {
	b := newTestBroker(t)
	if err := b.DeclareExchange("ex", Direct); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"q0", "q1"} {
		b.DeclareQueue(q, QueueOptions{})
	}
	b.Bind("q0", "ex", "part-0")
	b.Bind("q1", "ex", "part-1")
	b.Publish("ex", "part-1", nil, []byte("x"))
	b.Publish("ex", "part-other", nil, []byte("y")) // unroutable: dropped
	st0, _ := b.QueueStats("q0")
	st1, _ := b.QueueStats("q1")
	if st0.Ready != 0 || st1.Ready != 1 {
		t.Errorf("ready: q0=%d q1=%d", st0.Ready, st1.Ready)
	}
}

func TestTopicExchangeRouting(t *testing.T) {
	b := newTestBroker(t)
	b.DeclareExchange("ex", Topic)
	b.DeclareQueue("store", QueueOptions{})
	b.DeclareQueue("all", QueueOptions{})
	b.Bind("store", "ex", "stream.*.store")
	b.Bind("all", "ex", "#")
	b.Publish("ex", "stream.r.store", nil, nil)
	b.Publish("ex", "stream.r.join", nil, nil)
	st, _ := b.QueueStats("store")
	sa, _ := b.QueueStats("all")
	if st.Ready != 1 || sa.Ready != 2 {
		t.Errorf("ready: store=%d all=%d", st.Ready, sa.Ready)
	}
}

func TestAckRedeliveryOnCancel(t *testing.T) {
	b := newTestBroker(t)
	declare(t, b, "ex", Fanout, "q")
	c1, _ := b.Consume("q", 8, false)
	for i := 0; i < 5; i++ {
		b.Publish("ex", "", nil, []byte{byte(i)})
	}
	ds := drain(t, c1, 5, time.Second)
	c1.Ack(ds[0].Tag) // ack only the first
	c1.Cancel()       // remaining 4 requeue in order
	c2, _ := b.Consume("q", 8, false)
	ds2 := drain(t, c2, 4, time.Second)
	for i, d := range ds2 {
		if d.Body[0] != byte(i+1) {
			t.Fatalf("redelivery %d = %d, want %d", i, d.Body[0], i+1)
		}
	}
}

func TestNack(t *testing.T) {
	b := newTestBroker(t)
	declare(t, b, "ex", Fanout, "q")
	c, _ := b.Consume("q", 1, false)
	b.Publish("ex", "", nil, []byte("m"))
	d := drain(t, c, 1, time.Second)[0]
	if err := c.Nack(d.Tag, true); err != nil {
		t.Fatal(err)
	}
	d2 := drain(t, c, 1, time.Second)[0]
	if string(d2.Body) != "m" {
		t.Fatalf("requeued body = %q", d2.Body)
	}
	if err := c.Nack(d2.Tag, false); err != nil {
		t.Fatal(err)
	}
	st, _ := b.QueueStats("q")
	if st.Ready != 0 || st.Unacked != 0 {
		t.Errorf("stats after drop = %+v", st)
	}
	if err := c.Ack(999); !errors.Is(err, ErrUnknownDelivery) {
		t.Errorf("Ack(bogus) = %v", err)
	}
}

func TestPrefetchLimitsInflight(t *testing.T) {
	b := newTestBroker(t)
	declare(t, b, "ex", Fanout, "q")
	c, _ := b.Consume("q", 2, false)
	for i := 0; i < 10; i++ {
		b.Publish("ex", "", nil, nil)
	}
	ds := drain(t, c, 2, time.Second)
	select {
	case <-c.Deliveries():
		t.Fatal("third delivery arrived beyond prefetch=2")
	case <-time.After(50 * time.Millisecond):
	}
	st, _ := b.QueueStats("q")
	if st.Ready != 8 || st.Unacked != 2 {
		t.Errorf("stats = %+v", st)
	}
	c.Ack(ds[0].Tag)
	drain(t, c, 1, time.Second)
}

func TestPublishBackpressure(t *testing.T) {
	b := newTestBroker(t)
	b.DeclareExchange("ex", Fanout)
	b.DeclareQueue("q", QueueOptions{MaxLen: 2})
	b.Bind("q", "ex", "#")
	b.Publish("ex", "", nil, nil)
	b.Publish("ex", "", nil, nil)
	blocked := make(chan struct{})
	go func() {
		b.Publish("ex", "", nil, nil) // blocks: queue full
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("publish did not block at MaxLen")
	case <-time.After(50 * time.Millisecond):
	}
	c, _ := b.Consume("q", 1, true)
	drain(t, c, 3, time.Second)
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("publish stayed blocked after space freed")
	}
}

func TestAutoDeleteQueue(t *testing.T) {
	b := newTestBroker(t)
	b.DeclareExchange("ex", Fanout)
	name := b.AnonymousQueueName("ex")
	if !strings.Contains(name, "anonymous") {
		t.Errorf("anon name = %q", name)
	}
	b.DeclareQueue(name, QueueOptions{AutoDelete: true})
	b.Bind(name, "ex", "#")
	c, _ := b.Consume(name, 1, true)
	c.Cancel()
	if _, err := b.QueueStats(name); !errors.Is(err, ErrNoQueue) {
		t.Errorf("auto-delete queue still exists: %v", err)
	}
	// Publishing afterwards must not panic or route to the dead queue.
	if err := b.Publish("ex", "", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeclareIdempotencyAndConflicts(t *testing.T) {
	b := newTestBroker(t)
	if err := b.DeclareExchange("ex", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareExchange("ex", Topic); err != nil {
		t.Fatalf("redeclare same kind: %v", err)
	}
	if err := b.DeclareExchange("ex", Direct); !errors.Is(err, ErrExchangeExists) {
		t.Errorf("redeclare different kind = %v", err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatalf("redeclare same opts: %v", err)
	}
	if err := b.DeclareQueue("q", QueueOptions{MaxLen: 5}); !errors.Is(err, ErrQueueExists) {
		t.Errorf("redeclare different opts = %v", err)
	}
	if err := b.Bind("q", "ex", "a.b"); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "a.b"); err != nil {
		t.Fatalf("duplicate bind: %v", err)
	}
	if err := b.Bind("q", "ex", "bad..pattern"); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestErrorsOnMissingEntities(t *testing.T) {
	b := newTestBroker(t)
	if err := b.Publish("nope", "", nil, nil); !errors.Is(err, ErrNoExchange) {
		t.Errorf("Publish = %v", err)
	}
	if _, err := b.Consume("nope", 1, true); !errors.Is(err, ErrNoQueue) {
		t.Errorf("Consume = %v", err)
	}
	if err := b.Bind("nope", "alsonope", "#"); !errors.Is(err, ErrNoExchange) {
		t.Errorf("Bind = %v", err)
	}
	if err := b.DeleteQueue("nope"); !errors.Is(err, ErrNoQueue) {
		t.Errorf("DeleteQueue = %v", err)
	}
}

func TestDeleteQueueDropsMessagesAndConsumers(t *testing.T) {
	b := newTestBroker(t)
	declare(t, b, "ex", Fanout, "q")
	c, _ := b.Consume("q", 1, true)
	b.Publish("ex", "", nil, nil)
	if err := b.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, c)
	// Publish after delete routes nowhere but succeeds.
	if err := b.Publish("ex", "", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	b := New(nil)
	declare(t, b, "ex", Fanout, "q")
	c, _ := b.Consume("q", 1, true)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, c)
	if err := b.Publish("ex", "", nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v", err)
	}
	if err := b.DeclareExchange("x", Topic); !errors.Is(err, ErrClosed) {
		t.Errorf("Declare after close = %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestListingsAndTable(t *testing.T) {
	b := newTestBroker(t)
	declare(t, b, "Rstore.exchange", Topic, "Rstore.exchange.Rstoregroup")
	declare(t, b, "Sstore.exchange", Topic, "Sstore.exchange.Sstoregroup")
	qs := b.Queues()
	if len(qs) != 2 || qs[0] != "Rstore.exchange.Rstoregroup" {
		t.Errorf("Queues = %v", qs)
	}
	exs := b.Exchanges()
	if len(exs) != 2 || !strings.Contains(exs[0], "topic") {
		t.Errorf("Exchanges = %v", exs)
	}
	table := b.FormatQueueTable()
	if !strings.Contains(table, "Rstoregroup") || !strings.Contains(table, "idle") {
		t.Errorf("table = %q", table)
	}
}

func TestConcurrentPublishersAndConsumers(t *testing.T) {
	b := newTestBroker(t)
	declare(t, b, "ex", Fanout, "q")
	const producers, perProducer, consumers = 4, 250, 3
	var wg sync.WaitGroup
	conns := make([]Consumer, consumers)
	for i := 0; i < consumers; i++ {
		c, err := b.Consume("q", 8, false)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range c.Deliveries() {
				c.Ack(d.Tag)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := b.Publish("ex", "", nil, []byte{byte(p)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	waitFor(t, 10*time.Second, func() bool {
		st, _ := b.QueueStats("q")
		return st.Acked >= int64(producers*perProducer)
	})
	for _, c := range conns {
		c.Cancel()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: goroutines never exited after cancel")
	}
	st, _ := b.QueueStats("q")
	if st.Acked != int64(producers*perProducer) {
		t.Errorf("acked = %d, want %d", st.Acked, producers*perProducer)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func waitClosed(t *testing.T, c Consumer) {
	t.Helper()
	deadline := time.After(time.Second)
	for {
		select {
		case _, ok := <-c.Deliveries():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("consumer channel never closed")
		}
	}
}

func BenchmarkPublishConsume(b *testing.B) {
	br := New(nil)
	defer br.Close()
	br.DeclareExchange("ex", Direct)
	br.DeclareQueue("q", QueueOptions{})
	br.Bind("q", "ex", "k")
	c, _ := br.Consume("q", 256, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for range c.Deliveries() {
			n++
			if n == b.N {
				return
			}
		}
	}()
	body := []byte("0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Publish("ex", "k", nil, body)
	}
	<-done
}
