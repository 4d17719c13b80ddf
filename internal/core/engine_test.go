package core

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/predicate"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/wire"
)

// collector gathers results thread-safely via OnResult.
type collector struct {
	mu   sync.Mutex
	seen map[[2]uint64]int
}

func newCollector() *collector { return &collector{seen: make(map[[2]uint64]int)} }

func (c *collector) add(jr tuple.JoinResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[jr.Key()]++
}

func (c *collector) snapshot() map[[2]uint64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[[2]uint64]int, len(c.seen))
	for k, v := range c.seen {
		out[k] = v
	}
	return out
}

// refJoin computes the expected result set: all (r,s) pairs matching
// the predicate within the window.
func refJoin(rs, ss []*tuple.Tuple, pred predicate.Predicate, winMs int64) map[[2]uint64]int {
	want := map[[2]uint64]int{}
	for _, r := range rs {
		for _, s := range ss {
			d := r.TS - s.TS
			if d < 0 {
				d = -d
			}
			if d <= winMs && pred.Match(r, s) {
				want[[2]uint64{r.Seq, s.Seq}] = 1
			}
		}
	}
	return want
}

func startEngine(t *testing.T, cfg Config, col *collector) *Engine {
	t.Helper()
	cfg.OnResult = col.add
	if cfg.PunctuationInterval == 0 {
		cfg.PunctuationInterval = time.Millisecond
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Stop() })
	return e
}

func ingestAll(t *testing.T, e *Engine, tuples []*tuple.Tuple) {
	t.Helper()
	for _, tp := range tuples {
		if err := e.Ingest(tp); err != nil {
			t.Fatal(err)
		}
	}
}

// makeWorkload builds interleaved R and S tuples with the given key
// cardinality and millisecond spacing.
func makeWorkload(n int, keys int64, stepMs int64, seed int64) (rs, ss, all []*tuple.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	seq := uint64(1)
	for i := 0; i < n; i++ {
		ts := int64(i) * stepMs
		r := tuple.New(tuple.R, seq, ts, tuple.Int(rng.Int63n(keys)))
		seq++
		s := tuple.New(tuple.S, seq, ts, tuple.Int(rng.Int63n(keys)))
		seq++
		rs = append(rs, r)
		ss = append(ss, s)
		all = append(all, r, s)
	}
	return rs, ss, all
}

func verifyExactlyOnce(t *testing.T, got, want map[[2]uint64]int, label string) {
	t.Helper()
	for k, n := range got {
		if n > 1 {
			t.Errorf("%s: pair %v produced %d times", label, k, n)
		}
		if want[k] == 0 {
			t.Errorf("%s: unexpected pair %v", label, k)
		}
	}
	missing := 0
	for k := range want {
		if got[k] == 0 {
			missing++
			if missing <= 5 {
				t.Errorf("%s: missing pair %v", label, k)
			}
		}
	}
	if missing > 5 {
		t.Errorf("%s: %d pairs missing in total", label, missing)
	}
}

func TestEngineEquiJoinExactlyOnce(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		Routers:   2,
		RJoiners:  3,
		SJoiners:  3,
	}, col)
	rs, ss, all := makeWorkload(400, 20, 10, 1)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "equi")
	st := e.Snapshot()
	if st.TuplesIn != 800 {
		t.Errorf("TuplesIn = %d", st.TuplesIn)
	}
	if st.Results == 0 {
		t.Error("no results counted")
	}
}

func TestEngineBandJoinRandomRouting(t *testing.T) {
	pred := predicate.NewBand(0, 0, 2)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		Routers:   2,
		RJoiners:  2,
		SJoiners:  3,
	}, col)
	rs, ss, all := makeWorkload(200, 30, 10, 2)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "band")
}

func TestEngineThetaJoin(t *testing.T) {
	pred := predicate.NewTheta(0, 0, predicate.LT)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  2,
		SJoiners:  2,
	}, col)
	rs, ss, all := makeWorkload(120, 50, 10, 3)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "theta")
}

func TestEngineWindowExcludesDistantPairs(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Second, // 1s window
	}, col)
	// Same key, 5 seconds apart: no result.
	r := tuple.New(tuple.R, 1, 0, tuple.Int(7))
	s := tuple.New(tuple.S, 2, 5000, tuple.Int(7))
	ingestAll(t, e, []*tuple.Tuple{r, s})
	if err := e.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(col.snapshot()) != 0 {
		t.Errorf("out-of-window pair joined: %v", col.snapshot())
	}
}

func TestEngineScaleOutJoinersNoMissNoDup(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  2,
		SJoiners:  2,
	}, col)
	rs, ss, all := makeWorkload(300, 15, 10, 4)
	// Ingest first half, scale out both groups, ingest second half.
	half := len(all) / 2
	ingestAll(t, e, all[:half])
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleJoiners(tuple.R, 4); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleJoiners(tuple.S, 4); err != nil {
		t.Fatal(err)
	}
	if e.NumJoiners(tuple.R) != 4 || e.NumJoiners(tuple.S) != 4 {
		t.Fatal("scale out did not apply")
	}
	ingestAll(t, e, all[half:])
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "scale-out")
}

func TestEngineScaleInJoinersNoMissNoDup(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  4,
		SJoiners:  4,
	}, col)
	rs, ss, all := makeWorkload(300, 15, 10, 5)
	half := len(all) / 2
	ingestAll(t, e, all[:half])
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleJoiners(tuple.R, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleJoiners(tuple.S, 2); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, e, all[half:])
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "scale-in")
}

func TestEngineScaleRouters(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		Routers:   1,
		RJoiners:  2,
		SJoiners:  2,
	}, col)
	rs, ss, all := makeWorkload(300, 15, 10, 6)
	third := len(all) / 3
	ingestAll(t, e, all[:third])
	if err := e.ScaleRouters(3); err != nil {
		t.Fatal(err)
	}
	if e.NumRouters() != 3 {
		t.Fatal("router scale-out did not apply")
	}
	ingestAll(t, e, all[third:2*third])
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleRouters(1); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, e, all[2*third:])
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "scale-routers")
}

func TestEngineResultsChannel(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	e, err := New(Config{
		Predicate:           pred,
		Window:              time.Minute,
		PunctuationInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	ingestAll(t, e, []*tuple.Tuple{
		tuple.New(tuple.R, 1, 0, tuple.Int(7)),
		tuple.New(tuple.S, 2, 1, tuple.Int(7)),
	})
	select {
	case jr := <-e.Results():
		if jr.Left.Seq != 1 || jr.Right.Seq != 2 {
			t.Errorf("result = %v", jr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result on channel")
	}
}

// TestSinkDeadLettersAPoisonFrameWhole: a result frame whose second pair
// is truncated is dead-lettered as a whole — its intact first pair never
// reaches the application — and the sink carries on with the next frame.
func TestSinkDeadLettersAPoisonFrameWhole(t *testing.T) {
	b := broker.New(nil)
	t.Cleanup(func() { b.Close() }) // after the engine's own cleanup stops it
	col := newCollector()
	startEngine(t, Config{Predicate: predicate.NewEqui(0, 0), Window: time.Minute, Broker: b}, col)
	pair := func(l, r uint64) []byte {
		return tuple.AppendPair(nil, tuple.New(tuple.R, l, 0, tuple.Int(1)), tuple.New(tuple.S, r, 0, tuple.Int(1)))
	}
	poison := append(pair(1, 2), pair(3, 4)...)
	for _, frame := range [][]byte{poison[:len(poison)-1], append(pair(5, 6), pair(7, 8)...)} {
		if err := b.Publish(topo.ResultExchange, topo.ResultKey, nil, frame); err != nil {
			t.Fatal(err)
		}
	}
	// The sink takes frames in order, so once the good frame's pairs are
	// in, the poison frame has been handled.
	deadline := time.Now().Add(5 * time.Second)
	for len(col.snapshot()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	want := map[[2]uint64]int{{5, 6}: 1, {7, 8}: 1}
	if got := col.snapshot(); !maps.Equal(got, want) {
		t.Fatalf("delivered %v, want only the good frame's pairs %v", got, want)
	}
	st, err := b.QueueStats(topo.ResultExchange + ".sink")
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadLettered != 1 {
		t.Fatalf("sink queue dead-lettered %d frames, want the poison frame", st.DeadLettered)
	}
}

func TestEngineOverRemoteBroker(t *testing.T) {
	b := broker.New(nil)
	srv := wire.NewServer(b, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); b.Close() }()
	client, err := wire.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  2,
		SJoiners:  2,
		Broker:    client,
	}, col)
	rs, ss, all := makeWorkload(100, 10, 10, 7)
	ingestAll(t, e, all)
	if err := e.Quiesce(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "remote")
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Predicate: predicate.NewEqui(0, 0)}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(Config{
		Predicate: predicate.NewBand(0, 0, 1), Window: time.Second,
		RJoiners: 2, RSubgroups: 2,
	}); err == nil {
		t.Error("subgroups>1 accepted for band predicate")
	}
	if _, err := New(Config{
		Predicate: predicate.NewEqui(0, 0), Window: time.Second,
		RJoiners: 2, RSubgroups: 5,
	}); err == nil {
		t.Error("out-of-range subgroups accepted")
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	e, err := New(Config{Predicate: predicate.NewEqui(0, 0), Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(tuple.New(tuple.R, 1, 0, tuple.Int(1))); err == nil {
		t.Error("Ingest before Start accepted")
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("double Start accepted")
	}
	if err := e.ScaleJoiners(tuple.R, 0); err == nil {
		t.Error("scale to zero accepted")
	}
	if err := e.ScaleRouters(0); err == nil {
		t.Error("router scale to zero accepted")
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(); err != nil {
		t.Errorf("double Stop = %v", err)
	}
	if err := e.Ingest(tuple.New(tuple.R, 1, 0, tuple.Int(1))); err == nil {
		t.Error("Ingest after Stop accepted")
	}
}

func TestEngineSequenceAssignment(t *testing.T) {
	col := newCollector()
	e := startEngine(t, Config{Predicate: predicate.NewEqui(0, 0), Window: time.Second}, col)
	tp := tuple.New(tuple.R, 0, 0, tuple.Int(1))
	if err := e.Ingest(tp); err != nil {
		t.Fatal(err)
	}
	if tp.Seq == 0 {
		t.Error("Ingest did not assign a sequence number")
	}
}

func TestEngineSubgroupHybridCorrectness(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:  pred,
		Window:     time.Minute,
		RJoiners:   4,
		SJoiners:   4,
		RSubgroups: 2,
		SSubgroups: 2,
	}, col)
	rs, ss, all := makeWorkload(200, 10, 10, 8)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "subgroup")
}

func TestEngineHashRoutingFanoutIsOne(t *testing.T) {
	// With pure hash partitioning each tuple's join copy goes to exactly
	// one opposite member (the low-communication side of §3.2).
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  4,
		SJoiners:  4,
	}, col)
	_, _, all := makeWorkload(100, 50, 10, 9)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	var routed, fanout int64
	for _, r := range st.Routers {
		routed += r.TuplesRouted
		fanout += r.JoinFanout
	}
	if routed != 200 {
		t.Fatalf("routed = %d", routed)
	}
	if fanout != routed {
		t.Errorf("hash fanout = %d for %d tuples, want equal", fanout, routed)
	}
}

func TestEngineBroadcastFanoutIsGroupSize(t *testing.T) {
	pred := predicate.NewBand(0, 0, 1)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  3,
		SJoiners:  3,
	}, col)
	_, _, all := makeWorkload(50, 50, 10, 10)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	var routed, fanout int64
	for _, r := range st.Routers {
		routed += r.TuplesRouted
		fanout += r.JoinFanout
	}
	if fanout != routed*3 {
		t.Errorf("broadcast fanout = %d for %d tuples with 3 members", fanout, routed)
	}
}

func TestEngineStatsWindowShrinksViaExpiry(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:     pred,
		Window:        time.Second,
		ArchivePeriod: 100 * time.Millisecond,
	}, col)
	// 20 seconds of event time at 10ms steps: the window holds ~100
	// tuples per relation at a time, not 2000.
	var all []*tuple.Tuple
	seq := uint64(1)
	for i := 0; i < 2000; i++ {
		rel := tuple.R
		if i%2 == 1 {
			rel = tuple.S
		}
		all = append(all, tuple.New(rel, seq, int64(i)*10, tuple.Int(int64(i%10))))
		seq++
	}
	ingestAll(t, e, all)
	if err := e.Quiesce(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if st.WindowTuples > 600 {
		t.Errorf("WindowTuples = %d; expiry is not bounding memory", st.WindowTuples)
	}
	var expired int64
	for _, j := range st.RJoiners {
		expired += j.Expired
	}
	for _, j := range st.SJoiners {
		expired += j.Expired
	}
	if expired == 0 {
		t.Error("no expiry happened")
	}
}

func BenchmarkEngineEquiEndToEnd(b *testing.B) {
	var n int64
	e, err := New(Config{
		Predicate:           predicate.NewEqui(0, 0),
		Window:              time.Minute,
		RJoiners:            2,
		SJoiners:            2,
		PunctuationInterval: 5 * time.Millisecond,
		OnResult:            func(tuple.JoinResult) { n++ },
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	defer e.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := tuple.R
		if i%2 == 1 {
			rel = tuple.S
		}
		tp := tuple.New(rel, uint64(i+1), int64(i), tuple.Int(int64(i%4096)))
		if err := e.Ingest(tp); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Quiesce(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "results")
	_ = fmt.Sprint(n)
}

func TestEngineFullHistoryJoin(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:   pred,
		FullHistory: true,
		RJoiners:    2,
		SJoiners:    2,
	}, col)
	// Pairs separated by a month of event time still join.
	const month = int64(30 * 24 * 3600 * 1000)
	r := tuple.New(tuple.R, 1, 0, tuple.Int(7))
	s := tuple.New(tuple.S, 2, month, tuple.Int(7))
	ingestAll(t, e, []*tuple.Tuple{r, s})
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := col.snapshot()
	if got[[2]uint64{1, 2}] != 1 {
		t.Errorf("full-history pair missing: %v", got)
	}
	// Scale-out works; scale-in migrates the donor's full history onto
	// the survivors instead of refusing.
	if err := e.ScaleJoiners(tuple.R, 3); err != nil {
		t.Fatal(err)
	}
	var rs, ss []*tuple.Tuple
	seq := uint64(100)
	for i := 0; i < 60; i++ {
		rs = append(rs, tuple.New(tuple.R, seq, month+int64(i), tuple.Int(int64(i%8))))
		seq++
	}
	ingestAll(t, e, rs)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleJoiners(tuple.R, 2); err != nil {
		t.Fatalf("full-history scale-in with migration: %v", err)
	}
	if got := e.NumJoiners(tuple.R); got != 2 {
		t.Fatalf("NumJoiners(R) = %d after scale-in, want 2", got)
	}
	// Probes arriving after the migration must still find every tuple
	// the donor held — including the month-old one.
	for i := 0; i < 60; i++ {
		ss = append(ss, tuple.New(tuple.S, seq, month+int64(i), tuple.Int(int64(i%8))))
		seq++
	}
	ingestAll(t, e, ss)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := refJoin(append(rs, r), append(ss, s), pred, int64(1)<<62)
	verifyExactlyOnce(t, col.snapshot(), want, "full-history scale-in")
	if n := e.Metrics().Counter("engine.migrations").Value(); n == 0 {
		t.Error("engine.migrations counter did not advance")
	}
}

func TestEngineFullHistoryValidation(t *testing.T) {
	if _, err := New(Config{Predicate: predicate.NewEqui(0, 0), FullHistory: true, Window: time.Minute}); err == nil {
		t.Error("FullHistory with Window accepted")
	}
}

func TestEngineContRandExactlyOnceUnderSkew(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate:   pred,
		Window:      time.Minute,
		Routers:     2,
		RJoiners:    3,
		SJoiners:    3,
		ContRand:    true,
		HotFraction: 0.05,
	}, col)
	// 60% of tuples share one key: a hash-routed hotspot, which
	// ContRand scatters. Exactly-once must hold through promotion.
	rng := rand.New(rand.NewSource(11))
	var rs, ss, all []*tuple.Tuple
	seq := uint64(1)
	for i := 0; i < 400; i++ {
		key := int64(7)
		if rng.Float64() > 0.6 {
			key = rng.Int63n(1000) + 100
		}
		ts := int64(i) * 10
		r := tuple.New(tuple.R, seq, ts, tuple.Int(key))
		seq++
		s := tuple.New(tuple.S, seq, ts, tuple.Int(key))
		seq++
		rs, ss, all = append(rs, r), append(ss, s), append(all, r, s)
	}
	ingestAll(t, e, all)
	if err := e.Quiesce(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "contrand")
}

func TestEngineContRandValidation(t *testing.T) {
	if _, err := New(Config{
		Predicate: predicate.NewBand(0, 0, 1), Window: time.Minute, ContRand: true,
	}); err == nil {
		t.Error("ContRand with non-partitionable predicate accepted")
	}
}

func TestEngineResumesFromDurableBroker(t *testing.T) {
	// The §4.2 durability story end-to-end: tuples published while no
	// router is running survive a broker restart and are joined once
	// the engine comes up against the recovered broker.
	dir := t.TempDir()
	b, err := broker.NewDurable(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Declare(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r := tuple.New(tuple.R, uint64(i+1), int64(i), tuple.Int(int64(i)))
		s := tuple.New(tuple.S, uint64(i+100), int64(i), tuple.Int(int64(i)))
		for _, tp := range []*tuple.Tuple{r, s} {
			if err := b.Publish(topo.EntryExchange, topo.EntryKey, nil, tuple.Marshal(tp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil { // "crash" with 20 unconsumed tuples
		t.Fatal(err)
	}

	b2, err := broker.NewDurable(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: predicate.NewEqui(0, 0),
		Window:    time.Minute,
		RJoiners:  2,
		SJoiners:  2,
		Broker:    b2,
	}, col)
	// The engine's quiesce accounting can't see the pre-engine backlog
	// (tuplesIn counts Ingest calls), so wait on results directly.
	deadline := time.Now().Add(10 * time.Second)
	for len(col.snapshot()) < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/10 recovered pairs joined", len(col.snapshot()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for k, n := range col.snapshot() {
		if n != 1 {
			t.Errorf("pair %v joined %d times", k, n)
		}
	}
	_ = e
}

func TestEngineBandJoinWithBTreeIndex(t *testing.T) {
	pred := predicate.NewBand(0, 0, 2)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		RJoiners:  2,
		SJoiners:  2,
	}, col)
	rs, ss, all := makeWorkload(150, 30, 10, 14)
	ingestAll(t, e, all)
	if err := e.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "band-btree")
}
