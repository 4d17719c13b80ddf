package core

import (
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/faults"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

// The drain barrier's own cases: each test below fails if one of
// Quiesce's steps, or the removed-router cursor floor, is left out.

// TestQuiesceSurvivesDuplicateDelivery: a duplicated entry publish is
// routed twice, so a barrier that balanced routed against ingested
// counts would wait forever. Quiesce waits on stamps, returns, and the
// joiners' dedup keeps the multiset exact.
func TestQuiesceSurvivesDuplicateDelivery(t *testing.T) {
	reg := metrics.NewRegistry()
	inner := broker.New(nil)
	t.Cleanup(func() { inner.Close() })
	f := faults.Wrap(inner, faults.Config{
		Seed:        1,
		Metrics:     reg,
		PerExchange: map[string]faults.Rule{topo.EntryExchange: {Dup: 0.2}},
	})
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred, Window: time.Minute,
		Routers: 2, RJoiners: 2, SJoiners: 2,
		Broker: f, Metrics: reg,
	}, col)
	rs, ss, all := makeWorkload(300, 20, 1, 1)
	ingestAll(t, e, all)
	f.Disable()
	if err := f.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("faults.dup"); v == 0 {
		t.Fatal("no entry publish was duplicated")
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "duplicate-delivery")
}

// TestQuiesceWaitsForSlowSink: results reach the application through an
// OnResult that takes a millisecond per pair, long after every joiner
// published them. Quiesce may return only once the last pair was handed
// over, which the sink's ack-after-delivery shows on the result queue.
func TestQuiesceWaitsForSlowSink(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e, err := New(Config{
		Predicate: pred, Window: time.Minute,
		RJoiners: 2, SJoiners: 2,
		PunctuationInterval: time.Millisecond,
		OnResult: func(jr tuple.JoinResult) {
			time.Sleep(time.Millisecond)
			col.add(jr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Stop() })
	rs, ss, all := makeWorkload(100, 10, 1, 2)
	want := refJoin(rs, ss, pred, 60_000)
	if len(want) < 200 {
		t.Fatalf("workload yields %d pairs, too few to keep the sink busy", len(want))
	}
	ingestAll(t, e, all)
	if err := e.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), want, "slow-sink")
}

// TestQuiesceWaitsOutResultBacklog: every result publish fails until the
// faults are disabled, so the joiners pass the cursor with their results
// still in their retry backlogs and the result queue empty. Quiesce must
// wait until the backlogs drained into the broker and on to the sink.
func TestQuiesceWaitsOutResultBacklog(t *testing.T) {
	reg := metrics.NewRegistry()
	inner := broker.New(nil)
	t.Cleanup(func() { inner.Close() })
	f := faults.Wrap(inner, faults.Config{
		Seed:        1,
		Metrics:     reg,
		PerExchange: map[string]faults.Rule{topo.ResultExchange: {Drop: 1}},
	})
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred, Window: time.Minute,
		RJoiners: 2, SJoiners: 2,
		Broker: f, Metrics: reg,
	}, col)
	rs, ss, all := makeWorkload(100, 10, 1, 3)
	ingestAll(t, e, all)
	// Drops hold no publish outside the broker: a failed result frame
	// waits in its joiner's backlog, which the barrier reads.
	heal := time.AfterFunc(300*time.Millisecond, f.Disable)
	defer heal.Stop()
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("faults.drop"); v == 0 {
		t.Fatal("no result publish failed")
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "result-backlog")
}

// TestQuiesceAcrossRouterAndJoinerScaleIn: a windowed scale-in seals two
// R members, which keep answering probes, and a router scale-in retires
// the router that stamped the last batch while its sibling is down. The
// retired router's tombstone unregisters it at every joiner, so nothing
// but its own counter says how far its envelopes reach: they stay
// buffered until the sibling punctuates past them. Quiesce's cursor
// never reads below a removed router's tombstone, so it waits for that.
func TestQuiesceAcrossRouterAndJoinerScaleIn(t *testing.T) {
	b := broker.New(nil)
	t.Cleanup(func() { b.Close() })
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred, Window: time.Minute,
		Routers: 2, RJoiners: 3, SJoiners: 2,
		Broker: b,
	}, col)
	rs, ss, all := makeWorkload(300, 20, 1, 4)
	third := len(all) / 3

	ingestAll(t, e, all[:third])
	if err := e.ScaleJoiners(tuple.R, 1); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, e, all[third:2*third])

	// Router 0 stops, which publishes its final punctuation, and comes
	// back 300ms later; meanwhile router 1 alone stamps the last batch
	// and scale-in retires it.
	e.mu.Lock()
	r0 := e.routers[0]
	e.mu.Unlock()
	r0.Stop()
	restarted := make(chan error, 1)
	time.AfterFunc(300*time.Millisecond, func() { restarted <- r0.Start() })
	ingestAll(t, e, all[2*third:])
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := b.QueueStats(topo.EntryQueue)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ready+st.Unacked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router 1 never routed the last batch: %+v", st)
		}
	}
	if err := e.ScaleRouters(1); err != nil {
		t.Fatal(err)
	}

	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "scale-in")
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceThenResultsIsExact: the sink counts a batch's pairs once,
// before acking the batch, so right after each Quiesce Snapshot().Results
// equals the pairs handed to the application and the reference join of
// everything ingested so far. Few keys make every probe a hot key, so
// results arrive as large back-referenced frames in multi-frame batches.
func TestQuiesceThenResultsIsExact(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred, Window: time.Minute,
		RJoiners: 2, SJoiners: 2,
	}, col)
	rs, ss, all := makeWorkload(400, 5, 1, 4)
	const rounds = 4
	step := len(all) / rounds
	for i := 1; i <= rounds; i++ {
		ingestAll(t, e, all[(i-1)*step:i*step])
		if err := e.Quiesce(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		got := e.Snapshot().Results
		handed := 0
		for _, n := range col.snapshot() {
			handed += n
		}
		want := refJoin(rs[:i*step/2], ss[:i*step/2], pred, 60_000)
		if got != int64(handed) || got != int64(len(want)) {
			t.Fatalf("round %d: Snapshot().Results = %d after Quiesce, application got %d pairs, reference join %d",
				i, got, handed, len(want))
		}
	}
}
