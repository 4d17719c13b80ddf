package joiner

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

func startService(t *testing.T, rel tuple.Relation) (*broker.Broker, *Service) {
	t.Helper()
	b := broker.New(nil)
	t.Cleanup(func() { b.Close() })
	for _, r := range []tuple.Relation{tuple.R, tuple.S} {
		if err := b.DeclareExchange(topo.StoreExchange(r), broker.Topic); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareExchange(topo.JoinExchange(r), broker.Topic); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeclareExchange(topo.ResultExchange, broker.Topic); err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(Config{ID: 0, Rel: rel, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(core, b)
	svc.AddRouter(1)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return b, svc
}

func publishEnv(t *testing.T, b *broker.Broker, exchange, key string, env protocol.Envelope) {
	t.Helper()
	if err := b.Publish(exchange, key, nil, env.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func TestServiceEndToEndJoin(t *testing.T) {
	b, svc := startService(t, tuple.R)
	// Result sink.
	if err := b.DeclareQueue("sink", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("sink", topo.ResultExchange, topo.ResultKey); err != nil {
		t.Fatal(err)
	}
	sink, err := b.Consume("sink", 16, true)
	if err != nil {
		t.Fatal(err)
	}

	storeEx := topo.StoreExchange(tuple.R)
	joinEx := topo.JoinExchange(tuple.S)
	r := tuple.New(tuple.R, 1, 1000, tuple.Int(7))
	s := tuple.New(tuple.S, 2, 1001, tuple.Int(7))
	publishEnv(t, b, storeEx, topo.MemberKey(0), storeEnv(1, r))
	publishEnv(t, b, joinEx, topo.MemberKey(0), joinEnv(2, s))
	punct := protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: 2}
	publishEnv(t, b, storeEx, topo.PunctKey, punct)
	publishEnv(t, b, joinEx, topo.PunctKey, punct)

	select {
	case d := <-sink.Deliveries():
		l, rr, err := tuple.UnmarshalPair(d.Body)
		if err != nil {
			t.Fatal(err)
		}
		if l.Seq != 1 || rr.Seq != 2 {
			t.Errorf("result pair = %v, %v", l, rr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result published")
	}
	if st := svc.Stats(); st.Results != 1 || st.Stored != 1 {
		t.Errorf("stats = %+v", st)
	}
	if svc.MemBytes() <= 0 {
		t.Error("MemBytes should be positive with a stored tuple")
	}
	if svc.ID() != 0 || svc.Rel() != tuple.R {
		t.Error("accessors wrong")
	}
}

func TestServicePoisonMessagesIgnored(t *testing.T) {
	b, svc := startService(t, tuple.R)
	if err := b.Publish(topo.StoreExchange(tuple.R), topo.MemberKey(0), nil, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.MemberKey(0),
		storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(1))))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().Received == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("joiner wedged on poison message")
}

func TestServiceLifecycle(t *testing.T) {
	b, svc := startService(t, tuple.S)
	if err := svc.Start(); err == nil {
		t.Error("double start accepted")
	}
	storeQ, joinQ := svc.Queues()
	if storeQ != "Sstore.exchange.q.0" || joinQ != "Rjoin.exchange.q.0" {
		t.Errorf("queues = %s, %s", storeQ, joinQ)
	}
	svc.Stop()
	svc.Stop() // idempotent
	// Queues survive Stop (restart possible)...
	if _, err := b.QueueStats(storeQ); err != nil {
		t.Errorf("store queue gone after Stop: %v", err)
	}
	// ...but Retire deletes them.
	svc2 := NewService(mustCore(t, tuple.S, 1), b)
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	sq2, jq2 := svc2.Queues()
	svc2.Retire()
	if _, err := b.QueueStats(sq2); err == nil {
		t.Error("store queue survived Retire")
	}
	if _, err := b.QueueStats(jq2); err == nil {
		t.Error("join queue survived Retire")
	}
}

func TestServiceFlushPublishesBufferedResults(t *testing.T) {
	b, svc := startService(t, tuple.R)
	if err := b.DeclareQueue("sink", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("sink", topo.ResultExchange, topo.ResultKey); err != nil {
		t.Fatal(err)
	}
	sink, err := b.Consume("sink", 16, true)
	if err != nil {
		t.Fatal(err)
	}
	// Tuples without punctuation stay buffered; Flush releases them.
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.MemberKey(0),
		storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))))
	publishEnv(t, b, topo.JoinExchange(tuple.S), topo.MemberKey(0),
		joinEnv(2, tuple.New(tuple.S, 2, 0, tuple.Int(7))))
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Pending != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want 2", svc.Stats().Pending)
		}
		time.Sleep(time.Millisecond)
	}
	svc.Flush()
	select {
	case <-sink.Deliveries():
	case <-time.After(5 * time.Second):
		t.Fatal("flush published nothing")
	}
}

func TestServiceRemoveRouter(t *testing.T) {
	b, svc := startService(t, tuple.R)
	svc.AddRouter(2) // never punctuates
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.MemberKey(0),
		storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))))
	punct := protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: 5}
	publishEnv(t, b, topo.StoreExchange(tuple.R), topo.PunctKey, punct)
	publishEnv(t, b, topo.JoinExchange(tuple.S), topo.PunctKey, punct)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Pending != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want 1 (gated by router 2)", svc.Stats().Pending)
		}
		time.Sleep(time.Millisecond)
	}
	svc.RemoveRouter(2)
	deadline = time.Now().Add(5 * time.Second)
	for svc.Stats().Stored != 1 {
		if time.Now().After(deadline) {
			t.Fatal("RemoveRouter did not unblock processing")
		}
		time.Sleep(time.Millisecond)
	}
}

func mustCore(t *testing.T, rel tuple.Relation, id int32) *Core {
	t.Helper()
	c, err := NewCore(Config{ID: id, Rel: rel, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// flakyResults is a client without the batch capability whose result
// publishes fail while down is set, after letting `allow` more through.
type flakyResults struct {
	broker.Client
	mu    sync.Mutex
	down  bool
	allow int
}

func (f *flakyResults) set(down bool, allow int) {
	f.mu.Lock()
	f.down, f.allow = down, allow
	f.mu.Unlock()
}

func (f *flakyResults) Publish(exchange, key string, h map[string]string, body []byte) error {
	if exchange == topo.ResultExchange {
		f.mu.Lock()
		fail := f.down && f.allow == 0
		if f.down && f.allow > 0 {
			f.allow--
		}
		f.mu.Unlock()
		if fail {
			return errors.New("injected result publish failure")
		}
	}
	return f.Client.Publish(exchange, key, h, body)
}

// TestServiceResultBatchFailureKeepsOrder: a batch's results go out in
// one PublishBatch; when it fails part-way the published prefix stays
// published, the rest joins the retry backlog, later results queue up
// behind the backlog instead of overtaking it, and once the broker is
// back everything arrives exactly once in emit order.
func TestServiceResultBatchFailureKeepsOrder(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	client := &flakyResults{Client: b}
	if err := topo.Declare(client); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("sink", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("sink", topo.ResultExchange, topo.ResultKey); err != nil {
		t.Fatal(err)
	}
	svc := NewService(mustCore(t, tuple.R, 0), client)
	svc.AddRouter(1)
	// Driven by hand, under the lock the consume loops would hold.
	handle := func(src protocol.Source, envs ...protocol.Envelope) {
		svc.mu.Lock()
		svc.core.HandleBatch(envs, src, svc.emit)
		svc.publishLocked()
		svc.mu.Unlock()
	}
	punct := func(c uint64) protocol.Envelope {
		return protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: c}
	}
	// One stored R tuple; every S probe of the key yields one result.
	handle(protocol.SourceStore, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))), punct(1))
	handle(protocol.SourceJoin, punct(1))
	probe := func(counter, seq uint64) protocol.Envelope {
		return joinEnv(counter, tuple.New(tuple.S, seq, 0, tuple.Int(7)))
	}

	// Batch 1: five results, the broker dies after two of them.
	client.set(true, 2)
	handle(protocol.SourceStore, punct(10))
	handle(protocol.SourceJoin, probe(2, 102), probe(3, 103), probe(4, 104), probe(5, 105), probe(6, 106), punct(10))
	if got := svc.RetryBacklog(); got != 3 {
		t.Fatalf("backlog after the failed batch = %d, want 3", got)
	}
	// Batch 2 while still down: must queue behind the backlog.
	handle(protocol.SourceStore, punct(20))
	handle(protocol.SourceJoin, probe(11, 111), probe(12, 112), punct(20))
	if got := svc.RetryBacklog(); got != 5 {
		t.Fatalf("backlog while down = %d, want 5", got)
	}
	// Batch 3 after recovery: backlog first, then the fresh result.
	client.set(false, 0)
	handle(protocol.SourceStore, punct(30))
	handle(protocol.SourceJoin, probe(21, 121), punct(30))
	if got := svc.RetryBacklog(); got != 0 {
		t.Fatalf("backlog after recovery = %d, want 0", got)
	}

	sink, err := b.Consume("sink", 16, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{102, 103, 104, 105, 106, 111, 112, 121}
	for i, w := range want {
		select {
		case d := <-sink.Deliveries():
			_, s, err := tuple.UnmarshalPair(d.Body)
			if err != nil {
				t.Fatal(err)
			}
			if s.Seq != w {
				t.Fatalf("result %d pairs S seq %d, want %d (emit order)", i, s.Seq, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("result %d never arrived", i)
		}
	}
	if st, _ := b.QueueStats("sink"); st.Published != int64(len(want)) {
		t.Fatalf("sink saw %d results, want %d exactly once each", st.Published, len(want))
	}
}
