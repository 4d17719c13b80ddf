package router

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/faults"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

// failNth fails the n-th publish (counting from 1) to a store or join
// exchange after arm(n); everything else passes through.
type failNth struct {
	broker.Client
	mu       sync.Mutex
	n, calls int
}

func (f *failNth) arm(n int) {
	f.mu.Lock()
	f.n, f.calls = n, 0
	f.mu.Unlock()
}

func (f *failNth) Publish(exchange, key string, h map[string]string, body []byte) error {
	if exchange != topo.EntryExchange {
		f.mu.Lock()
		f.calls++
		fail := f.calls == f.n
		f.mu.Unlock()
		if fail {
			return errors.New("injected publish failure")
		}
	}
	return f.Client.Publish(exchange, key, h, body)
}

// queueLog is what one joiner queue received, decoded, in order.
type queueLog []protocol.Envelope

// readQueue reads n messages from queue — frames and lone envelopes,
// decoded through the frame decoder — and checks that no further
// message follows them.
func readQueue(t *testing.T, b *broker.Broker, queue string, n int) queueLog {
	t.Helper()
	cons, err := b.Consume(queue, n+1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Cancel()
	log := readMessages(t, cons, queue, n)
	select {
	case d := <-cons.Deliveries():
		t.Fatalf("%s: unexpected extra message %x", queue, d.Body)
	case <-time.After(20 * time.Millisecond):
	}
	return log
}

// readMessages decodes the next n messages of cons.
func readMessages(t *testing.T, cons broker.Consumer, queue string, n int) queueLog {
	t.Helper()
	var log queueLog
	for i := 0; i < n; i++ {
		select {
		case d := <-cons.Deliveries():
			var err error
			if log, err = protocol.AppendEnvelopes(log, d.Body, nil); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: %d of %d messages arrived", queue, i, n)
		}
	}
	return log
}

// checkOrder holds one queue's log to the ordering protocol's contract:
// tuple envelopes arrive in strictly increasing stamp order, and no
// tuple stamped at or below a punctuation arrives after it.
func (log queueLog) checkOrder(t *testing.T, queue string) {
	t.Helper()
	var lastStamp, lastPunct uint64
	for i, env := range log {
		switch env.Kind {
		case protocol.KindPunctuation:
			if env.Counter < lastStamp {
				t.Fatalf("%s[%d]: punctuation %d behind an already delivered stamp %d", queue, i, env.Counter, lastStamp)
			}
			lastPunct = max(lastPunct, env.Counter)
		case protocol.KindTuple:
			if env.Counter <= lastStamp {
				t.Fatalf("%s[%d]: stamp %d arrived after stamp %d", queue, i, env.Counter, lastStamp)
			}
			if env.Counter <= lastPunct {
				t.Fatalf("%s[%d]: seq %d stamped %d arrived after punctuation %d", queue, i, env.Tuple.Seq, env.Counter, lastPunct)
			}
			lastStamp = env.Counter
		}
	}
}

func (log queueLog) seqs() []uint64 {
	var out []uint64
	for _, env := range log {
		if env.Kind == protocol.KindTuple {
			out = append(out, env.Tuple.Seq)
		}
	}
	return out
}

// keysByMember returns one equi key per member of a two-member hash
// layout: keys[m] routes to member m.
func keysByMember() [2]tuple.Value {
	var keys [2]tuple.Value
	found := [2]bool{}
	for v := int64(0); !found[0] || !found[1]; v++ {
		k := tuple.Int(v)
		if m := k.Hash() % 2; !found[m] {
			keys[m], found[m] = k, true
		}
	}
	return keys
}

// newFaultedRouter builds a router over a two-member hash layout per
// relation whose store and join publishes go one at a time through
// failNth (faults.Client has no PublishBatch), with every joiner
// queue declared, and n R tuples queued on the entry queue: key(seq)
// chooses each one's key.
func newFaultedRouter(t *testing.T, n int, key func(seq uint64) tuple.Value) (*broker.Broker, *failNth, *Service, broker.Consumer) {
	t.Helper()
	b := broker.New(nil)
	t.Cleanup(func() { b.Close() })
	inner := &failNth{Client: b}
	client := faults.Wrap(inner, faults.Config{}) // no rules: a pass-through without PublishBatch
	core, err := NewCore(Config{ID: 0, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(core, client, nil, ServiceConfig{})
	if err := topo.Declare(client); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int32{0, 1} {
		declareMemberQueues(t, b, m)
	}
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := svc.SetLayout(rel, []int32{0, 1}, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		body := tuple.Marshal(tuple.New(tuple.R, seq, int64(seq), key(seq)))
		if err := b.Publish(topo.EntryExchange, topo.EntryKey, nil, body); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := client.Consume(topo.EntryQueue, 2*maxRouteBatch, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cons.Cancel() })
	return b, inner, svc, cons
}

// receive takes the next k deliveries of the entry queue.
func receive(t *testing.T, cons broker.Consumer, k int) []broker.Delivery {
	t.Helper()
	var batch []broker.Delivery
	for len(batch) < k {
		select {
		case d := <-cons.Deliveries():
			batch = append(batch, d)
		case <-time.After(5 * time.Second):
			t.Fatalf("entry queue delivered %d of %d", len(batch), k)
		}
	}
	return batch
}

// TestRouteMidBatchPublishFailure pins what a publish error in the
// middle of a router batch may and may not do, over a client without
// the batch capability (faults.Client, driven one Publish at a time):
// tuples whose frames all landed are acknowledged once; the first tuple
// of the failing frame and every later one return to the entry queue in
// arrival order; their unpublished envelopes are never sent under the
// old stamps, so nothing stamped at or below an already-sent
// punctuation arrives after it; and the retry completes every fan-out.
func TestRouteMidBatchPublishFailure(t *testing.T) {
	// Six R tuples over two members per relation: tuples 1-3 route to
	// member 0, 4-6 to member 1, so the batch is four frames, store
	// frames first — Rstore member 0 (1-3), Rstore member 1 (4-6), then
	// the S joiners' join queues, member 0 (1-3) and member 1 (4-6).
	// Publication 4 is the join frame whose first tuple is the 4th.
	const n = 6
	keys := keysByMember()
	b, inner, svc, cons := newFaultedRouter(t, n, func(seq uint64) tuple.Value { return keys[(seq-1)/3] })

	var rb routeBatch
	inner.arm(4)
	if svc.route(cons, receive(t, cons, n), &rb) {
		t.Fatal("route reported success across an injected publish failure")
	}
	st, _ := b.QueueStats(topo.EntryQueue)
	if st.Acked != 3 || st.Redelivered != 3 {
		t.Fatalf("after the failed batch: acked %d redelivered %d, want 3 and 3", st.Acked, st.Redelivered)
	}
	svc.publishPunctuation() // covers every stamp issued so far, burned ones included

	retry := receive(t, cons, 3)
	for i, d := range retry {
		tp, err := tuple.Unmarshal(d.Body)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Seq != uint64(4+i) || !d.Redelivered {
			t.Fatalf("redelivery %d: seq %d redelivered=%v, want seq %d redelivered", i, tp.Seq, d.Redelivered, 4+i)
		}
	}
	if !svc.route(cons, retry, &rb) {
		t.Fatal("retry batch failed")
	}
	if st, _ := b.QueueStats(topo.EntryQueue); st.Acked != n || st.Unacked != 0 || st.Ready != 0 {
		t.Fatalf("entry queue after retry: %+v, want %d acked once each and nothing left", st, n)
	}

	// Store queues: member 0 got 1-3 and the punctuation; member 1 got
	// 4-6 (their store frame landed before the join frame failed), the
	// punctuation, then 4-6 under fresh stamps. Join queues: member 0
	// got 1-3 and the punctuation, member 1 the punctuation and 4-6.
	store := append(readQueue(t, b, topo.StoreQueue(tuple.R, 0), 1+1), readQueue(t, b, topo.StoreQueue(tuple.R, 1), 1+1+1)...)
	join := append(readQueue(t, b, topo.JoinQueue(tuple.S, 0), 1+1), readQueue(t, b, topo.JoinQueue(tuple.S, 1), 1+1)...)
	store[:4].checkOrder(t, "store 0")
	store[4:].checkOrder(t, "store 1")
	join[:4].checkOrder(t, "join 0")
	join[4:].checkOrder(t, "join 1")
	if got := store.seqs(); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6, 4, 5, 6}) {
		t.Fatalf("store queues saw seqs %v", got)
	}
	if got := join.seqs(); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("join queues saw seqs %v", got)
	}
	if st := svc.Stats(); st.TuplesRouted != n+3 {
		t.Errorf("routed %d, want %d (three tuples stamped twice)", st.TuplesRouted, n+3)
	}
}

// TestRouteStoreFramesPrecedeJoinFrames fails each publication of one
// route batch in turn. Whichever fails, every join envelope that landed
// has its store envelope landed under the same stamp — a probe without
// its store would be followed, on the retry, by a store under a later
// stamp whose probe the joiner drops as a redelivery — and the
// requeued tuples are exactly those from the first tuple missing a
// copy onward.
func TestRouteStoreFramesPrecedeJoinFrames(t *testing.T) {
	const n = 12
	keys := keysByMember()
	key := func(seq uint64) tuple.Value { return keys[seq*7%11%2] }
	for fail := 1; ; fail++ {
		b, inner, svc, cons := newFaultedRouter(t, n, key)
		var rb routeBatch
		inner.arm(fail)
		if svc.route(cons, receive(t, cons, n), &rb) {
			if fail-1 != 4 {
				t.Fatalf("the batch was %d publications, want 4: a store and a join frame per member", fail-1)
			}
			return // every publication position has failed once
		}
		type copyID struct{ seq, stamp uint64 }
		stored := map[copyID]bool{}
		var joined []copyID
		hasStore, hasJoin := map[uint64]bool{}, map[uint64]bool{}
		for _, m := range []int32{0, 1} {
			for _, q := range []string{topo.StoreQueue(tuple.R, m), topo.JoinQueue(tuple.S, m)} {
				st, err := b.QueueStats(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, env := range readQueue(t, b, q, st.Ready) {
					id := copyID{env.Tuple.Seq, env.Counter}
					if env.Stream == protocol.StreamStore {
						stored[id], hasStore[id.seq] = true, true
					} else {
						joined, hasJoin[id.seq] = append(joined, id), true
					}
				}
			}
		}
		for _, id := range joined {
			if !stored[id] {
				t.Fatalf("publication %d failed: seq %d's join copy landed under stamp %d without its store copy", fail, id.seq, id.stamp)
			}
		}
		done := 0
		for done < n && hasStore[uint64(done+1)] && hasJoin[uint64(done+1)] {
			done++
		}
		st, _ := b.QueueStats(topo.EntryQueue)
		if st.Acked != int64(done) || st.Ready+st.Unacked != n-done {
			t.Fatalf("publication %d failed: acked %d, requeued %d; tuples 1-%d have every copy, so want %d and %d",
				fail, st.Acked, st.Ready+st.Unacked, done, done, n-done)
		}
		// The consumer stays attached while route requeues, so its
		// dispatcher may take a requeued tuple before the next one is
		// back: compare the redelivered set, not its order.
		var requeued, want []uint64
		for _, d := range receive(t, cons, n-done) {
			tp, err := tuple.Unmarshal(d.Body)
			if err != nil {
				t.Fatal(err)
			}
			requeued = append(requeued, tp.Seq)
		}
		for seq := uint64(done + 1); seq <= n; seq++ {
			want = append(want, seq)
		}
		if slices.Sort(requeued); !slices.Equal(requeued, want) {
			t.Fatalf("publication %d failed: requeued seqs %v, want %v", fail, requeued, want)
		}
	}
}

// TestServiceKeepsStampOrderAndPunctuationContract runs the started
// service — batched route loop over the in-process broker's PublishBatch
// against a 1 ms punctuation ticker — and checks every joiner queue for
// stamp order and for the punctuation promise.
func TestServiceKeepsStampOrderAndPunctuationContract(t *testing.T) {
	const n = 4000
	b, svc := startService(t, predicate.NewEqui(0, 0))
	declareJoinerQueues(t, b)
	for seq := uint64(1); seq <= n; seq++ {
		rel := tuple.Relation(seq % 2)
		body := tuple.Marshal(tuple.New(rel, seq, int64(seq), tuple.Int(int64(seq%50))))
		if err := b.Publish(topo.EntryExchange, topo.EntryKey, nil, body); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().TuplesRouted < n {
		if time.Now().After(deadline) {
			t.Fatalf("routed %d of %d", svc.Stats().TuplesRouted, n)
		}
		time.Sleep(time.Millisecond)
	}
	svc.Stop() // final punctuation included
	for _, q := range []string{
		topo.StoreQueue(tuple.R, 0), topo.StoreQueue(tuple.S, 0),
		topo.JoinQueue(tuple.R, 0), topo.JoinQueue(tuple.S, 0),
	} {
		st, err := b.QueueStats(q)
		if err != nil {
			t.Fatal(err)
		}
		log := readQueue(t, b, q, st.Ready)
		log.checkOrder(t, q)
		if got := len(log.seqs()); got != n/2 {
			t.Fatalf("%s received %d tuple envelopes, want %d", q, got, n/2)
		}
	}
	if st, _ := b.QueueStats(topo.EntryQueue); st.Acked != n || st.Redelivered != 0 {
		t.Fatalf("entry queue: %+v, want %d acked and no redelivery", st, n)
	}
}

// TestJoinTargetsMatchNaiveUnion holds the compiled fan-out table to the
// definition it compiles — the sorted, deduplicated union over live
// generations of the subgroup the hash maps to, minus dead members —
// across random layout changes, dead marks and prunes.
func TestJoinTargetsMatchNaiveUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGroup(testWin())
	nowTS := int64(0)
	naive := func(hash uint64, partitionable bool) []int32 {
		var out []int32
		for _, gen := range g.gens {
			for i, m := range gen.members {
				if g.dead[m] || slices.Contains(out, m) {
					continue
				}
				if !partitionable || gen.subgroups == 1 || uint64(i%gen.subgroups) == hash%uint64(gen.subgroups) {
					out = append(out, m)
				}
			}
		}
		slices.Sort(out)
		return out
	}
	for step := 0; step < 300; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(g.gens) == 0:
			size := 1 + rng.Intn(8)
			members := make([]int32, 0, size)
			for _, m := range rng.Perm(12)[:size] {
				if !g.dead[int32(m)] {
					members = append(members, int32(m))
				}
			}
			if len(members) == 0 {
				continue
			}
			nowTS += int64(rng.Intn(3000))
			if err := g.SetLayout(members, 1+rng.Intn(len(members)), nowTS); err != nil {
				t.Fatal(err)
			}
		case r < 5:
			// Only members outside the current layout die (migration
			// retires a member after the shrunk layout is installed).
			if m := int32(rng.Intn(12)); !slices.Contains(g.current().members, m) {
				g.MarkDead(m)
			}
		default:
			nowTS += int64(rng.Intn(4000)) // lets old generations expire
		}
		for probe := 0; probe < 20; probe++ {
			hash, part := rng.Uint64(), rng.Intn(4) != 0
			got, err := g.JoinTargets(hash, part, nowTS)
			if err != nil {
				t.Fatal(err)
			}
			if want := naive(hash, part); !slices.Equal(got, want) {
				t.Fatalf("step %d: JoinTargets(%d, %v) = %v, naive union says %v (%d generations, period %d)",
					step, hash, part, got, want, len(g.gens), g.period)
			}
		}
	}
}

// TestRouteAllocations pins Core.Route's steady-state allocations: the
// destinations slice and nothing else (make check's deterministic perf
// gate, beside the broker's).
func TestRouteAllocations(t *testing.T) {
	c := newEquiCore(t)
	mustLayout(t, c, tuple.R, []int32{0, 1, 2, 3}, 4)
	mustLayout(t, c, tuple.S, []int32{0, 1, 2, 3}, 4)
	tp := tuple.New(tuple.R, 1, 1000, tuple.Int(42))
	now := at(1000)
	route := func() {
		if _, err := c.Route(tp, now); err != nil {
			t.Fatal(err)
		}
	}
	route() // compile the fan-out for this hash
	if got := testing.AllocsPerRun(1000, route); got > 2 {
		t.Errorf("Core.Route allocates %v per tuple, want at most 2", got)
	}
}

// TestStopSettlesTheBatchInFlight: an orderly stop lets the route loop
// finish — publish and acknowledge — the batch it is on before the
// consumer is cancelled, so every entry tuple is either acknowledged
// after exactly one routing or back in the queue never routed. (Cancel
// first, and a batch published but not yet acknowledged is requeued and
// routed a second time: count-based drain accounting never balances.)
func TestStopSettlesTheBatchInFlight(t *testing.T) {
	const n = 3000
	for attempt := 0; attempt < 5; attempt++ {
		b, svc := startService(t, predicate.NewEqui(0, 0))
		declareJoinerQueues(t, b)
		pubs := make([]broker.Publication, n)
		for i := range pubs {
			seq := uint64(i + 1)
			pubs[i] = broker.Publication{Exchange: topo.EntryExchange, RoutingKey: topo.EntryKey,
				Body: tuple.Marshal(tuple.New(tuple.R, seq, int64(seq), tuple.Int(int64(seq))))}
		}
		if _, err := b.PublishBatch(context.Background(), pubs); err != nil {
			t.Fatal(err)
		}
		for svc.Stats().TuplesRouted == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		svc.Stop() // somewhere in the middle of the backlog
		st, err := b.QueueStats(topo.EntryQueue)
		if err != nil {
			t.Fatal(err)
		}
		routed := svc.Stats().TuplesRouted
		if routed != st.Acked || st.Acked+int64(st.Ready) != n || st.Unacked != 0 {
			t.Fatalf("attempt %d: routed %d, acked %d, ready %d, unacked %d of %d: a tuple was routed without being settled",
				attempt, routed, st.Acked, st.Ready, st.Unacked, n)
		}
	}
}

// TestSetLayoutsOrdersStampsAcrossRouters: however far apart the
// routers' stamp counters have drifted, every stamp issued after a
// joint layout change exceeds every stamp issued before it.
func TestSetLayoutsOrdersStampsAcrossRouters(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	var svcs []*Service
	for id := int32(0); id < 2; id++ {
		core, err := NewCore(Config{ID: id, Pred: predicate.NewEqui(0, 0), Window: testWin()})
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, NewService(core, b, nil, ServiceConfig{}))
	}
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := SetLayouts(svcs, rel, []int32{0, 1}, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Router 0's counter is far ahead of router 1's (skewed clocks, in a
	// deployment of separate hosts); router 1 is idle.
	ahead := uint64(time.Now().Add(time.Hour).UnixNano())
	svcs[0].core.stamper.Advance(ahead)
	before := svcs[0].StampCursor()
	if err := SetLayouts(svcs, tuple.R, []int32{0}, 1, 1); err != nil {
		t.Fatal(err)
	}
	dests, err := svcs[1].core.Route(tuple.New(tuple.R, 1, 0, tuple.Int(1)), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if got := dests[0].Env.Counter; got <= before {
		t.Fatalf("router 1 stamped %d under the new layout, router 0 had issued %d under the old one", got, before)
	}
	if got := svcs[1].core.Members(tuple.R); !slices.Equal(got, []int32{0}) {
		t.Fatalf("router 1 layout = %v", got)
	}
}

// frameSink is a client that keeps the publications of its last
// PublishBatch and discards them, so an allocation count sees the
// router's costs alone.
type frameSink struct {
	broker.Client
	last []broker.Publication
}

func (c *frameSink) PublishBatch(_ context.Context, pubs []broker.Publication) (int, error) {
	c.last = append(c.last[:0], pubs...)
	return len(pubs), nil
}

// nopConsumer settles nothing: route's acks go nowhere.
type nopConsumer struct{ broker.Consumer }

func (nopConsumer) Ack(uint64) error                   { return nil }
func (nopConsumer) Nack(uint64, bool) error            { return nil }
func (nopConsumer) AckBatch([]uint64) error            { return nil }
func (nopConsumer) Deliveries() <-chan broker.Delivery { return nil }

// TestRouteBatchFrameAllocations pins the route batch's message count
// and cost: a 128-tuple equi batch over 2+2 joiners publishes exactly
// one message per destination queue it addresses — every store and
// join queue of the four members here, eight messages for 256
// envelopes — and allocates about once per frame, the sealed body.
func TestRouteBatchFrameAllocations(t *testing.T) {
	const n = maxRouteBatch
	core, err := NewCore(Config{ID: 0, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	sink := &frameSink{}
	svc := NewService(core, sink, nil, ServiceConfig{})
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := svc.SetLayout(rel, []int32{0, 1}, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]broker.Delivery, n)
	for i := range batch {
		seq := uint64(i + 1)
		batch[i] = broker.Delivery{Tag: seq, Message: broker.Message{Body: tuple.Marshal(tuple.New(tuple.Relation(seq%2), seq, int64(seq), tuple.Int(int64(seq/2%50))))}}
	}
	var (
		rb   routeBatch
		cons broker.Consumer = nopConsumer{}
	)
	route := func() {
		if !svc.route(cons, batch, &rb) {
			t.Fatal("route failed")
		}
	}
	route()
	queues := map[[2]string]bool{}
	envs := 0
	for _, p := range sink.last {
		queues[[2]string{p.Exchange, p.RoutingKey}] = true
		got, err := protocol.AppendEnvelopes(nil, p.Body, nil)
		if err != nil {
			t.Fatal(err)
		}
		envs += len(got)
	}
	if len(sink.last) != 8 || len(queues) != 8 || envs != 2*n {
		t.Fatalf("%d tuples went out as %d messages to %d queues carrying %d envelopes, want 8, 8 and %d",
			n, len(sink.last), len(queues), envs, 2*n)
	}
	const maxAllocsPerFrame = 1.1
	if got := testing.AllocsPerRun(200, route) / 8; got > maxAllocsPerFrame {
		t.Errorf("a route batch allocates %.3f times per frame, want at most %v", got, maxAllocsPerFrame)
	}
}
