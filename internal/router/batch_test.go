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

func readQueue(t *testing.T, b *broker.Broker, queue string, n int) queueLog {
	t.Helper()
	cons, err := b.Consume(queue, n+1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Cancel()
	var log queueLog
	for len(log) < n {
		select {
		case d := <-cons.Deliveries():
			env, err := protocol.UnmarshalEnvelope(d.Body)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, env)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: %d of %d envelopes arrived", queue, len(log), n)
		}
	}
	select {
	case d := <-cons.Deliveries():
		t.Fatalf("%s: unexpected extra envelope %x", queue, d.Body)
	case <-time.After(20 * time.Millisecond):
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

// TestRouteMidBatchPublishFailure pins what a publish error in the
// middle of a router batch may and may not do, over a client without
// the batch capability (faults.Client, driven one Publish at a time):
// tuples whose copies all landed are acknowledged once; the failing
// tuple and every later one return to the entry queue in arrival order;
// their unpublished envelopes are never sent under the old stamps, so
// nothing stamped at or below an already-sent punctuation arrives after
// it; and the retry completes every fan-out.
func TestRouteMidBatchPublishFailure(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
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
	declareJoinerQueues(t, b)
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := svc.SetLayout(rel, []int32{0}, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Six R tuples, two copies each: Rstore.q.0 and the S joiner's join
	// queue (Rjoin.exchange.q.0). Publication 8 is tuple 4's join copy.
	const n = 6
	for seq := uint64(1); seq <= n; seq++ {
		body := tuple.Marshal(tuple.New(tuple.R, seq, int64(seq), tuple.Int(int64(seq))))
		if err := b.Publish(topo.EntryExchange, topo.EntryKey, nil, body); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := client.Consume(topo.EntryQueue, 2*maxRouteBatch, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Cancel()
	receive := func(k int) []broker.Delivery {
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

	var rb routeBatch
	inner.arm(8)
	if svc.route(cons, receive(n), &rb) {
		t.Fatal("route reported success across an injected publish failure")
	}
	st, _ := b.QueueStats(topo.EntryQueue)
	if st.Acked != 3 || st.Redelivered != 3 {
		t.Fatalf("after the failed batch: acked %d redelivered %d, want 3 and 3", st.Acked, st.Redelivered)
	}
	svc.publishPunctuation() // covers every stamp issued so far, burned ones included

	retry := receive(3)
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

	// Store queue: tuples 1-4 (4's store copy landed before its join copy
	// failed), the punctuation, then 4-6 under fresh stamps. Join queue:
	// 1-3, the punctuation, 4-6.
	store := readQueue(t, b, topo.StoreQueue(tuple.R, 0), 4+1+3)
	join := readQueue(t, b, topo.JoinQueue(tuple.S, 0), 3+1+3)
	store.checkOrder(t, "store")
	join.checkOrder(t, "join")
	if got := store.seqs(); !slices.Equal(got, []uint64{1, 2, 3, 4, 4, 5, 6}) {
		t.Fatalf("store queue saw seqs %v", got)
	}
	if got := join.seqs(); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("join queue saw seqs %v", got)
	}
	if st := svc.Stats(); st.TuplesRouted != n+3 {
		t.Errorf("routed %d, want %d (three tuples stamped twice)", st.TuplesRouted, n+3)
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
