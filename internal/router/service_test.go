package router

import (
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

func startService(t *testing.T, pred predicate.Predicate) (*broker.Broker, *Service) {
	t.Helper()
	b := broker.New(nil)
	t.Cleanup(func() { b.Close() })
	core, err := NewCore(Config{ID: 0, Pred: pred, Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(core, b, nil, ServiceConfig{PunctuationInterval: time.Millisecond})
	if err := svc.SetLayout(tuple.R, []int32{0}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetLayout(tuple.S, []int32{0}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return b, svc
}

// declareJoinerQueues declares member 0's queues for both relations so
// the service's publishes are observable.
func declareJoinerQueues(t *testing.T, b *broker.Broker) { declareMemberQueues(t, b, 0) }

// declareMemberQueues declares member m's store and join queues for
// both relations, bound as a joiner binds them.
func declareMemberQueues(t *testing.T, b *broker.Broker, m int32) {
	t.Helper()
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		storeQ := topo.StoreQueue(rel, m)
		joinQ := topo.JoinQueue(rel, m)
		for _, q := range []struct{ queue, ex string }{
			{storeQ, topo.StoreExchange(rel)},
			{joinQ, topo.JoinExchange(rel.Opposite())},
		} {
			if err := b.DeclareQueue(q.queue, broker.QueueOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := b.Bind(q.queue, q.ex, topo.MemberKey(m)); err != nil {
				t.Fatal(err)
			}
			if err := b.Bind(q.queue, q.ex, topo.PunctKey); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestServiceRoutesEntryTuples(t *testing.T) {
	b, svc := startService(t, predicate.NewEqui(0, 0))
	declareJoinerQueues(t, b)
	cons, err := b.Consume(topo.StoreQueue(tuple.R, 0), 16, true)
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple.New(tuple.R, 7, 1234, tuple.Int(42))
	if err := b.Publish(topo.EntryExchange, topo.EntryKey, nil, tuple.Marshal(tp)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-cons.Deliveries():
			envs, err := protocol.AppendEnvelopes(nil, d.Body, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, env := range envs {
				if env.Kind == protocol.KindPunctuation {
					continue // punctuation ticker noise
				}
				if env.Kind != protocol.KindTuple || env.Stream != protocol.StreamStore {
					t.Fatalf("envelope = %+v", env)
				}
				if env.Tuple.Seq != 7 || !env.Tuple.Value(0).Equal(tuple.Int(42)) {
					t.Fatalf("tuple = %v", env.Tuple)
				}
				if st := svc.Stats(); st.TuplesRouted != 1 {
					t.Errorf("stats = %+v", st)
				}
				return
			}
		case <-deadline:
			t.Fatal("store copy never arrived")
		}
	}
}

func TestServicePunctuatesPeriodidally(t *testing.T) {
	b, _ := startService(t, predicate.NewEqui(0, 0))
	declareJoinerQueues(t, b)
	cons, err := b.Consume(topo.JoinQueue(tuple.S, 0), 16, true)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-cons.Deliveries():
			env, err := protocol.UnmarshalEnvelope(d.Body)
			if err != nil {
				t.Fatal(err)
			}
			if env.Kind == protocol.KindPunctuation {
				return // ticker works
			}
		case <-deadline:
			t.Fatal("no punctuation within 5s at 1ms interval")
		}
	}
}

func TestServiceDropsPoisonMessages(t *testing.T) {
	b, svc := startService(t, predicate.NewEqui(0, 0))
	if err := b.Publish(topo.EntryExchange, topo.EntryKey, nil, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	declareJoinerQueues(t, b)
	// A good tuple after the poison one must still route.
	tp := tuple.New(tuple.R, 1, 0, tuple.Int(1))
	if err := b.Publish(topo.EntryExchange, topo.EntryKey, nil, tuple.Marshal(tp)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().TuplesRouted == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("router wedged on poison message")
}

func TestServiceDoubleStartAndStop(t *testing.T) {
	_, svc := startService(t, predicate.NewEqui(0, 0))
	if err := svc.Start(); err == nil {
		t.Error("double start accepted")
	}
	svc.Stop()
	svc.Stop() // idempotent
	if svc.ID() != 0 {
		t.Error("ID wrong")
	}
}

func TestServiceRetireBroadcastsTombstone(t *testing.T) {
	b, svc := startService(t, predicate.NewEqui(0, 0))
	declareJoinerQueues(t, b)
	cons, err := b.Consume(topo.StoreQueue(tuple.R, 0), 64, true)
	if err != nil {
		t.Fatal(err)
	}
	svc.Retire()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-cons.Deliveries():
			env, err := protocol.UnmarshalEnvelope(d.Body)
			if err != nil {
				t.Fatal(err)
			}
			if env.Kind == protocol.KindRetire {
				return
			}
		case <-deadline:
			t.Fatal("tombstone never arrived")
		}
	}
}
