package joiner

import (
	"testing"
	"time"

	"bistream/internal/index"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

func testWin() window.Sliding { return window.Sliding{Span: 10 * time.Second} }

func newRJoiner(t *testing.T, pred predicate.Predicate) *Core {
	t.Helper()
	c, err := NewCore(Config{ID: 0, Rel: tuple.R, Pred: pred, Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRouter(1)
	return c
}

func storeEnv(counter uint64, t *tuple.Tuple) protocol.Envelope {
	return protocol.Envelope{
		Kind: protocol.KindTuple, RouterID: 1, Counter: counter,
		Stream: protocol.StreamStore, Tuple: t,
	}
}

func joinEnv(counter uint64, t *tuple.Tuple) protocol.Envelope {
	return protocol.Envelope{
		Kind: protocol.KindTuple, RouterID: 1, Counter: counter,
		Stream: protocol.StreamJoin, Tuple: t,
	}
}

// feed delivers one envelope to the core as a one-element batch.
func feed(c *Core, env protocol.Envelope, src protocol.Source, emit func(tuple.JoinResult)) {
	c.HandleBatch([]protocol.Envelope{env}, src, emit)
}

func punctAll(c *Core, counter uint64, collect func(tuple.JoinResult)) {
	p := protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: counter}
	feed(c, p, protocol.SourceStore, collect)
	feed(c, p, protocol.SourceJoin, collect)
}

func TestCoreValidation(t *testing.T) {
	if _, err := NewCore(Config{Rel: tuple.R, Window: testWin()}); err == nil {
		t.Error("nil predicate accepted")
	}
	if _, err := NewCore(Config{Rel: tuple.R, Pred: predicate.NewEqui(0, 0)}); err == nil {
		t.Error("zero window accepted")
	}
	c, err := NewCore(Config{ID: 3, Rel: tuple.S, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != 3 || c.Rel() != tuple.S {
		t.Error("accessors wrong")
	}
}

func TestStoreThenJoinProducesResult(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }

	r := tuple.New(tuple.R, 1, 1000, tuple.Int(7))
	s := tuple.New(tuple.S, 2, 1500, tuple.Int(7))
	feed(c, storeEnv(1, r), protocol.SourceStore, collect)
	feed(c, joinEnv(2, s), protocol.SourceJoin, collect)
	if len(results) != 0 {
		t.Fatal("results emitted before punctuation")
	}
	punctAll(c, 2, collect)
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	jr := results[0]
	if jr.Left.Seq != 1 || jr.Right.Seq != 2 || jr.TS != 1500 {
		t.Errorf("result = %v", jr)
	}
	st := c.Stats()
	if st.Stored != 1 || st.Probed != 1 || st.Results != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestGraftReevaluatesProbesSeenBefore: a later copy of a probe (a
// router's re-route under a new stamp) is suppressed as a duplicate,
// unless a graft added tuples since the probe was evaluated here — then
// it is evaluated again and meets them. Without that, a hot-key move
// whose donor drops its pile before the re-routed copy reaches it loses
// the probe's pairs with the moved tuples.
func TestGraftReevaluatesProbesSeenBefore(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	probe := tuple.New(tuple.S, 50, 1000, tuple.Int(7))
	for stamp := uint64(1); stamp <= 2; stamp++ {
		feed(c, joinEnv(stamp, probe), protocol.SourceJoin, collect)
		punctAll(c, stamp, collect)
	}
	if st := c.Stats(); st.Probed != 1 || st.Deduped != 1 || len(results) != 0 {
		t.Fatalf("before the graft: stats %+v, results %v; want one probe, one duplicate, no result", st, results)
	}
	moved := tuple.New(tuple.R, 10, 1000, tuple.Int(7))
	if err := c.Graft([]index.Segment{{ID: 1, Origin: 3, Sealed: true, MinTS: 1000, MaxTS: 1000, Tuples: []*tuple.Tuple{moved}}}); err != nil {
		t.Fatal(err)
	}
	feed(c, joinEnv(3, probe), protocol.SourceJoin, collect)
	punctAll(c, 3, collect)
	if len(results) != 1 || results[0].Left != moved || results[0].Right.Seq != probe.Seq {
		t.Fatalf("after the graft: results %v, want the probe paired with the grafted tuple", results)
	}
	// Only probes are forgotten: a redelivered store copy is still a
	// duplicate.
	stored := tuple.New(tuple.R, 11, 1000, tuple.Int(8))
	for stamp := uint64(4); stamp <= 5; stamp++ {
		feed(c, storeEnv(stamp, stored), protocol.SourceStore, collect)
		punctAll(c, stamp, collect)
	}
	if st := c.Stats(); st.Stored != 1 {
		t.Fatalf("stored %d copies of one tuple, want 1", st.Stored)
	}
}

func TestNoMatchNoResult(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	feed(c, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(1))), protocol.SourceStore, collect)
	feed(c, joinEnv(2, tuple.New(tuple.S, 2, 0, tuple.Int(2))), protocol.SourceJoin, collect)
	punctAll(c, 2, collect)
	if len(results) != 0 {
		t.Errorf("results = %v", results)
	}
}

func TestWindowConstraintEnforced(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	// r at t=0; s arrives at t=10s (inside) and another at t=10.001s+
	// after expiry boundary.
	feed(c, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))), protocol.SourceStore, collect)
	feed(c, joinEnv(2, tuple.New(tuple.S, 2, 10_000, tuple.Int(7))), protocol.SourceJoin, collect)
	punctAll(c, 2, collect)
	if len(results) != 1 {
		t.Fatalf("in-window join missing: %v", results)
	}
	feed(c, joinEnv(3, tuple.New(tuple.S, 3, 10_001, tuple.Int(7))), protocol.SourceJoin, collect)
	punctAll(c, 3, collect)
	if len(results) != 1 {
		t.Errorf("out-of-window join produced a result")
	}
}

func TestTheorem1Expiry(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	collect := func(tuple.JoinResult) {}
	// Fill two archive periods, then expire with a far-future S tuple.
	for i := 0; i < 100; i++ {
		feed(c, storeEnv(uint64(i+1), tuple.New(tuple.R, uint64(i), int64(i)*200, tuple.Int(int64(i)))), protocol.SourceStore, collect)
	}
	punctAll(c, 100, collect)
	if c.Stats().WindowLen != 100 {
		t.Fatalf("WindowLen = %d", c.Stats().WindowLen)
	}
	feed(c, joinEnv(101, tuple.New(tuple.S, 1000, 40_000, tuple.Int(1))), protocol.SourceJoin, collect)
	punctAll(c, 101, collect)
	st := c.Stats()
	if st.Expired == 0 {
		t.Error("no tuples expired")
	}
	if st.WindowLen >= 100 {
		t.Errorf("WindowLen = %d after expiry", st.WindowLen)
	}
	if st.MemBytes <= 0 {
		t.Errorf("MemBytes = %d", st.MemBytes)
	}
}

func TestSJoinerOrientation(t *testing.T) {
	// An S-side joiner stores S tuples and probes with R tuples; the
	// predicate must still see (r, s) in the right order.
	pred := predicate.NewTheta(0, 0, predicate.LT) // R < S
	c, err := NewCore(Config{ID: 0, Rel: tuple.S, Pred: pred, Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRouter(1)
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	feed(c, storeEnv(1, tuple.New(tuple.S, 1, 0, tuple.Int(10))), protocol.SourceStore, collect)
	feed(c, joinEnv(2, tuple.New(tuple.R, 2, 0, tuple.Int(5))), protocol.SourceJoin, collect)  // 5 < 10: match
	feed(c, joinEnv(3, tuple.New(tuple.R, 3, 0, tuple.Int(15))), protocol.SourceJoin, collect) // 15 < 10: no
	punctAll(c, 3, collect)
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	if results[0].Left.Seq != 2 || results[0].Right.Seq != 1 {
		t.Errorf("orientation wrong: %v", results[0])
	}
}

func TestMisroutedTuplesIgnored(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	collect := func(tuple.JoinResult) {}
	// A store copy of an S tuple and a join copy of an R tuple are both
	// wrong for an R-side joiner.
	feed(c, storeEnv(1, tuple.New(tuple.S, 1, 0, tuple.Int(1))), protocol.SourceStore, collect)
	feed(c, joinEnv(2, tuple.New(tuple.R, 2, 0, tuple.Int(1))), protocol.SourceJoin, collect)
	punctAll(c, 2, collect)
	st := c.Stats()
	if st.Stored != 0 || st.Probed != 0 {
		t.Errorf("misrouted tuples processed: %+v", st)
	}
}

func TestBandJoinViaOrderedIndex(t *testing.T) {
	c := newRJoiner(t, predicate.NewBand(0, 0, 2))
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	for i, v := range []float64{1, 5, 9, 13} {
		feed(c, storeEnv(uint64(i+1), tuple.New(tuple.R, uint64(i), 0, tuple.Float(v))), protocol.SourceStore, collect)
	}
	feed(c, joinEnv(5, tuple.New(tuple.S, 100, 0, tuple.Float(6))), protocol.SourceJoin, collect)
	punctAll(c, 5, collect)
	// |5-6|<=2 matches; |1-6|,|9-6| are 5 and 3: only value 5 matches.
	if len(results) != 1 || results[0].Left.Value(0).AsFloat() != 5 {
		t.Fatalf("results = %v", results)
	}
	// The ordered index should not have compared every stored tuple:
	// comparisons < stored count shows the range plan pruned.
	if st := c.Stats(); st.Comparisons >= 4 {
		t.Errorf("comparisons = %d, range probe did not prune", st.Comparisons)
	}
}

func TestUnorderedModeProcessesImmediately(t *testing.T) {
	c, err := NewCore(Config{ID: 0, Rel: tuple.R, Pred: predicate.NewEqui(0, 0), Window: testWin(), Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	feed(c, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))), protocol.SourceStore, collect)
	feed(c, joinEnv(2, tuple.New(tuple.S, 2, 0, tuple.Int(7))), protocol.SourceJoin, collect)
	if len(results) != 1 {
		t.Fatalf("unordered mode did not process immediately: %v", results)
	}
}

// TestFig8OrderingScenarios reproduces Figure 8: the same r/s pair fed
// to both joiners under every arrival order. With the protocol the pair
// must produce exactly one result overall.
func TestFig8OrderingScenarios(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	r := tuple.New(tuple.R, 1, 1000, tuple.Int(7))
	s := tuple.New(tuple.S, 2, 1001, tuple.Int(7))
	// Stamps: r has counter 1, s has counter 2 (one router).
	rStore, rJoin := storeEnv(1, r), joinEnv(1, r)
	sStore, sJoin := storeEnv(2, s), joinEnv(2, s)

	type arrival struct {
		env protocol.Envelope
		src protocol.Source
		toR bool // deliver to the R-side joiner (else S-side)
	}
	scenarios := map[string][]arrival{
		// (a) r stored before s probes at Ri; r probes before s stored at Sj.
		"a": {{rStore, protocol.SourceStore, true}, {sJoin, protocol.SourceJoin, true},
			{rJoin, protocol.SourceJoin, false}, {sStore, protocol.SourceStore, false}},
		// (b) symmetric of (a).
		"b": {{sJoin, protocol.SourceJoin, true}, {rStore, protocol.SourceStore, true},
			{sStore, protocol.SourceStore, false}, {rJoin, protocol.SourceJoin, false}},
		// (c) the missed-result anomaly order.
		"c": {{sJoin, protocol.SourceJoin, true}, {rStore, protocol.SourceStore, true},
			{rJoin, protocol.SourceJoin, false}, {sStore, protocol.SourceStore, false}},
		// (d) the duplicate-result anomaly order.
		"d": {{rStore, protocol.SourceStore, true}, {sJoin, protocol.SourceJoin, true},
			{sStore, protocol.SourceStore, false}, {rJoin, protocol.SourceJoin, false}},
	}
	for name, seq := range scenarios {
		rJoiner, err := NewCore(Config{ID: 0, Rel: tuple.R, Pred: pred, Window: testWin()})
		if err != nil {
			t.Fatal(err)
		}
		sJoiner, err := NewCore(Config{ID: 0, Rel: tuple.S, Pred: pred, Window: testWin()})
		if err != nil {
			t.Fatal(err)
		}
		rJoiner.AddRouter(1)
		sJoiner.AddRouter(1)
		var results []tuple.JoinResult
		collect := func(jr tuple.JoinResult) { results = append(results, jr) }
		for _, a := range seq {
			if a.toR {
				feed(rJoiner, a.env, a.src, collect)
			} else {
				feed(sJoiner, a.env, a.src, collect)
			}
		}
		punctAll(rJoiner, 2, collect)
		punctAll(sJoiner, 2, collect)
		if len(results) != 1 {
			t.Errorf("scenario %s: %d results, want exactly 1", name, len(results))
		}
	}
}

// TestFig8AnomaliesWithoutProtocol shows the protocol is necessary:
// unordered processing yields 0 results for scenario (c) and 2 for (d).
func TestFig8AnomaliesWithoutProtocol(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	r := tuple.New(tuple.R, 1, 1000, tuple.Int(7))
	s := tuple.New(tuple.S, 2, 1001, tuple.Int(7))
	run := func(seq []struct {
		env protocol.Envelope
		toR bool
	}) int {
		rJoiner, _ := NewCore(Config{Rel: tuple.R, Pred: pred, Window: testWin(), Unordered: true})
		sJoiner, _ := NewCore(Config{Rel: tuple.S, Pred: pred, Window: testWin(), Unordered: true})
		n := 0
		collect := func(tuple.JoinResult) { n++ }
		for _, a := range seq {
			if a.toR {
				feed(rJoiner, a.env, protocol.SourceStore, collect)
			} else {
				feed(sJoiner, a.env, protocol.SourceStore, collect)
			}
		}
		return n
	}
	type step = struct {
		env protocol.Envelope
		toR bool
	}
	missed := run([]step{
		{joinEnv(2, s), true}, {storeEnv(1, r), true}, // s probes before r stored
		{joinEnv(1, r), false}, {storeEnv(2, s), false}, // r probes before s stored
	})
	if missed != 0 {
		t.Errorf("scenario (c) without protocol: %d results, want 0 (missed)", missed)
	}
	duplicated := run([]step{
		{storeEnv(1, r), true}, {joinEnv(2, s), true}, // result at Ri
		{storeEnv(2, s), false}, {joinEnv(1, r), false}, // result at Sj too
	})
	if duplicated != 2 {
		t.Errorf("scenario (d) without protocol: %d results, want 2 (duplicate)", duplicated)
	}
}

func TestFlushReleasesBuffered(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	feed(c, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))), protocol.SourceStore, collect)
	feed(c, joinEnv(2, tuple.New(tuple.S, 2, 0, tuple.Int(7))), protocol.SourceJoin, collect)
	if c.Stats().Pending != 2 {
		t.Fatalf("Pending = %d", c.Stats().Pending)
	}
	c.Flush(collect)
	if len(results) != 1 || c.Stats().Pending != 0 {
		t.Errorf("Flush: results=%d pending=%d", len(results), c.Stats().Pending)
	}
}

func TestRemoveRouterUnblocks(t *testing.T) {
	c := newRJoiner(t, predicate.NewEqui(0, 0))
	c.AddRouter(2) // second router never punctuates
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	feed(c, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))), protocol.SourceStore, collect)
	feed(c, joinEnv(2, tuple.New(tuple.S, 2, 0, tuple.Int(7))), protocol.SourceJoin, collect)
	punctAll(c, 2, collect)
	if len(results) != 0 {
		t.Fatal("released despite router 2 frontier")
	}
	c.RemoveRouter(2, collect)
	if len(results) != 1 {
		t.Errorf("RemoveRouter did not unblock: %v", results)
	}
}

func TestArchivePeriodDefault(t *testing.T) {
	c, err := NewCore(Config{Rel: tuple.R, Pred: predicate.NewEqui(0, 0), Window: window.Sliding{Span: 16 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	collect := func(tuple.JoinResult) {}
	// One insert per 500ms over 16s: with P = W/16 = 1s we expect many
	// sub-indexes.
	for i := 0; i < 32; i++ {
		feed(c, storeEnv(uint64(i+1), tuple.New(tuple.R, uint64(i), int64(i*500), tuple.Int(1))), protocol.SourceStore, collect)
	}
	punctAll(c, 32, collect)
	if st := c.Stats(); st.SubIndexes < 8 {
		t.Errorf("SubIndexes = %d, default archive period not applied", st.SubIndexes)
	}
}

func BenchmarkJoinerEquiThroughput(b *testing.B) {
	c, _ := NewCore(Config{Rel: tuple.R, Pred: predicate.NewEqui(0, 0), Window: testWin(), Unordered: true})
	collect := func(tuple.JoinResult) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := int64(i)
		feed(c, storeEnv(uint64(i)*2+1, tuple.New(tuple.R, uint64(i), ts, tuple.Int(int64(i&1023)))), protocol.SourceStore, collect)
		feed(c, joinEnv(uint64(i)*2+2, tuple.New(tuple.S, uint64(i), ts, tuple.Int(int64(i&1023)))), protocol.SourceJoin, collect)
	}
}

func TestFullHistoryJoinerNeverExpires(t *testing.T) {
	c, err := NewCore(Config{
		Rel: tuple.R, Pred: predicate.NewEqui(0, 0),
		Window: window.Unbounded(), FullHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRouter(1)
	var results []tuple.JoinResult
	collect := func(jr tuple.JoinResult) { results = append(results, jr) }
	// Store a tuple, then probe with one a year of event time later:
	// windowed mode would have expired it long ago.
	feed(c, storeEnv(1, tuple.New(tuple.R, 1, 0, tuple.Int(7))), protocol.SourceStore, collect)
	yearMs := int64(365 * 24 * time.Hour / time.Millisecond)
	feed(c, joinEnv(2, tuple.New(tuple.S, 2, yearMs, tuple.Int(7))), protocol.SourceJoin, collect)
	punctAll(c, 2, collect)
	if len(results) != 1 {
		t.Fatalf("full-history join missed: %v", results)
	}
	if st := c.Stats(); st.Expired != 0 || st.WindowLen != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFullHistoryFlagValidation(t *testing.T) {
	if _, err := NewCore(Config{
		Rel: tuple.R, Pred: predicate.NewEqui(0, 0),
		Window: testWin(), FullHistory: true,
	}); err == nil {
		t.Error("FullHistory with bounded window accepted")
	}
	if _, err := NewCore(Config{
		Rel: tuple.R, Pred: predicate.NewEqui(0, 0),
		Window: window.Unbounded(),
	}); err == nil {
		t.Error("unbounded window without FullHistory accepted")
	}
}
