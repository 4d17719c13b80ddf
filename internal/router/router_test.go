package router

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

func testWin() window.Sliding { return window.Sliding{Span: 10 * time.Second} }

func newEquiCore(t *testing.T) *Core {
	t.Helper()
	c, err := NewCore(Config{ID: 1, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustLayout(t *testing.T, c *Core, rel tuple.Relation, members []int32, d int) {
	t.Helper()
	if err := c.SetLayout(rel, members, d, 0); err != nil {
		t.Fatal(err)
	}
}

func at(ms int64) time.Time { return time.UnixMilli(ms) }

func TestGroupSetLayoutValidation(t *testing.T) {
	g := NewGroup(testWin())
	if err := g.SetLayout(nil, 1, 0); err == nil {
		t.Error("empty layout accepted")
	}
	if err := g.SetLayout([]int32{1, 2}, 0, 0); err == nil {
		t.Error("zero subgroups accepted")
	}
	if err := g.SetLayout([]int32{1, 2}, 3, 0); err == nil {
		t.Error("more subgroups than members accepted")
	}
	if err := g.SetLayout([]int32{1, 1}, 1, 0); err == nil {
		t.Error("duplicate members accepted")
	}
	if _, err := g.StoreTarget(0, false, 0); err == nil {
		t.Error("StoreTarget without layout should fail")
	}
	if _, err := g.JoinTargets(0, false, 0); err == nil {
		t.Error("JoinTargets without layout should fail")
	}
}

func TestGroupRandomStrategyRoundRobinsStores(t *testing.T) {
	g := NewGroup(testWin())
	g.SetLayout([]int32{10, 11, 12}, 1, 0)
	counts := map[int32]int{}
	for i := 0; i < 300; i++ {
		m, err := g.StoreTarget(uint64(i*7), true, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[m]++
	}
	for _, id := range []int32{10, 11, 12} {
		if counts[id] != 100 {
			t.Errorf("member %d got %d stores, want 100", id, counts[id])
		}
	}
}

func TestGroupRandomStrategyBroadcastsJoins(t *testing.T) {
	g := NewGroup(testWin())
	g.SetLayout([]int32{10, 11, 12}, 1, 0)
	targets, err := g.JoinTargets(12345, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 {
		t.Errorf("join targets = %v, want all 3", targets)
	}
}

func TestGroupHashStrategySingleTarget(t *testing.T) {
	g := NewGroup(testWin())
	g.SetLayout([]int32{10, 11, 12, 13}, 4, 0)
	for h := uint64(0); h < 100; h++ {
		st, _ := g.StoreTarget(h, true, 0)
		jt, _ := g.JoinTargets(h, true, 0)
		if len(jt) != 1 {
			t.Fatalf("hash join targets = %v", jt)
		}
		if jt[0] != st {
			t.Fatalf("hash %d: store %d but join %v", h, st, jt)
		}
	}
}

func TestGroupHashCollocation(t *testing.T) {
	// The guarantee behind hash routing: equal hashes always land on the
	// same member for both store and join.
	g := NewGroup(testWin())
	g.SetLayout([]int32{0, 1, 2, 3, 4}, 5, 0)
	f := func(h uint64) bool {
		a, err1 := g.StoreTarget(h, true, 0)
		b, err2 := g.StoreTarget(h, true, 0)
		jt, err3 := g.JoinTargets(h, true, 0)
		return err1 == nil && err2 == nil && err3 == nil &&
			a == b && len(jt) == 1 && jt[0] == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupSubgroupHybrid(t *testing.T) {
	// 6 members, 2 subgroups: stores round-robin within the hashed
	// subgroup; joins broadcast to the 3 subgroup members.
	g := NewGroup(testWin())
	g.SetLayout([]int32{0, 1, 2, 3, 4, 5}, 2, 0)
	jt0, _ := g.JoinTargets(0, true, 0) // subgroup 0 = members 0,2,4
	jt1, _ := g.JoinTargets(1, true, 0) // subgroup 1 = members 1,3,5
	if len(jt0) != 3 || len(jt1) != 3 {
		t.Fatalf("subgroup sizes: %v %v", jt0, jt1)
	}
	for _, m := range jt0 {
		if m%2 != 0 {
			t.Errorf("member %d in even subgroup", m)
		}
	}
	for i := 0; i < 30; i++ {
		m, _ := g.StoreTarget(0, true, 0)
		if m%2 != 0 {
			t.Errorf("store for hash 0 went to odd member %d", m)
		}
	}
}

func TestGroupNonPartitionableIgnoresHash(t *testing.T) {
	g := NewGroup(testWin())
	g.SetLayout([]int32{0, 1, 2, 3}, 4, 0)
	jt, _ := g.JoinTargets(1, false, 0)
	if len(jt) != 4 {
		t.Errorf("non-partitionable join should broadcast: %v", jt)
	}
}

func TestGroupScaleOutDrainsOldGeneration(t *testing.T) {
	g := NewGroup(testWin()) // 10s window
	g.SetLayout([]int32{0, 1}, 2, 0)
	// Scale out to 3 members at t=60s.
	if err := g.SetLayout([]int32{0, 1, 2}, 3, 60_000); err != nil {
		t.Fatal(err)
	}
	if g.Generations() != 2 {
		t.Fatalf("Generations = %d", g.Generations())
	}
	// Right after scale-out, join fan-out covers both mappings.
	union := map[int32]bool{}
	for h := uint64(0); h < 50; h++ {
		jt, _ := g.JoinTargets(h, true, 61_000)
		for _, m := range jt {
			union[m] = true
		}
		if len(jt) < 1 || len(jt) > 2 {
			t.Fatalf("transition join targets = %v", jt)
		}
	}
	if len(union) != 3 {
		t.Errorf("union of join targets = %v, want all 3 members", union)
	}
	// After a full window (+slack) the old generation is pruned and
	// every hash maps to exactly one member again.
	for h := uint64(0); h < 50; h++ {
		jt, _ := g.JoinTargets(h, true, 60_000+testWin().SpanMillis()+2000)
		if len(jt) != 1 {
			t.Fatalf("post-drain join targets = %v", jt)
		}
	}
	if g.Generations() != 1 {
		t.Errorf("Generations after drain = %d", g.Generations())
	}
}

func TestGroupScaleInStopsStoresImmediately(t *testing.T) {
	g := NewGroup(testWin())
	g.SetLayout([]int32{0, 1, 2}, 1, 0)
	g.SetLayout([]int32{0, 1}, 1, 100_000)
	for i := 0; i < 50; i++ {
		m, _ := g.StoreTarget(uint64(i), true, 100_001)
		if m == 2 {
			t.Fatal("store routed to removed member")
		}
	}
	// The removed member still receives join fan-out while draining.
	jt, _ := g.JoinTargets(0, true, 100_001)
	if len(jt) != 3 {
		t.Errorf("draining join targets = %v", jt)
	}
	jt, _ = g.JoinTargets(0, true, 100_000+testWin().SpanMillis()+2000)
	if len(jt) != 2 {
		t.Errorf("post-drain join targets = %v", jt)
	}
}

func TestGroupIdenticalLayoutIsNoOp(t *testing.T) {
	g := NewGroup(testWin())
	g.SetLayout([]int32{0, 1}, 2, 0)
	g.SetLayout([]int32{0, 1}, 2, 50)
	if g.Generations() != 1 {
		t.Errorf("redundant SetLayout created a generation")
	}
}

func TestCoreValidation(t *testing.T) {
	if _, err := NewCore(Config{Pred: nil, Window: testWin()}); err == nil {
		t.Error("nil predicate accepted")
	}
	if c, err := NewCore(Config{Pred: predicate.NewEqui(0, 0)}); err != nil || c == nil {
		// A zero window is the full-history mode: retired layout
		// generations are kept forever instead of draining.
		t.Errorf("unbounded-window router rejected: %v", err)
	}
	c := newEquiCore(t)
	if err := c.SetLayout(tuple.R, []int32{0}, 1, 0); err != nil {
		t.Fatal(err)
	}
	band, _ := NewCore(Config{ID: 2, Pred: predicate.NewBand(0, 0, 1), Window: testWin()})
	if err := band.SetLayout(tuple.R, []int32{0, 1}, 2, 0); err == nil {
		t.Error("subgroups > 1 accepted for non-partitionable predicate")
	}
	if err := band.SetLayout(tuple.R, []int32{0, 1}, 1, 0); err != nil {
		t.Error(err)
	}
}

func TestCoreRouteEquiHash(t *testing.T) {
	c := newEquiCore(t)
	mustLayout(t, c, tuple.R, []int32{0, 1}, 2)
	mustLayout(t, c, tuple.S, []int32{0, 1, 2}, 3)
	rt := tuple.New(tuple.R, 1, 100, tuple.Int(42))
	dests, err := c.Route(rt, at(100))
	if err != nil {
		t.Fatal(err)
	}
	// Equi with full hash partitioning: 1 store + 1 join destination.
	if len(dests) != 2 {
		t.Fatalf("destinations = %+v", dests)
	}
	store, join := dests[0], dests[1]
	if store.Exchange != "Rstore.exchange" || !strings.HasPrefix(store.Key, "m.") {
		t.Errorf("store dest = %+v", store)
	}
	if join.Exchange != "Rjoin.exchange" {
		t.Errorf("join dest = %+v", join)
	}
	if store.Env.Stream != protocol.StreamStore || join.Env.Stream != protocol.StreamJoin {
		t.Error("stream kinds wrong")
	}
	if store.Env.Counter != join.Env.Counter {
		t.Error("store and join copies must share one counter")
	}
	if store.Env.Counter == 0 {
		t.Error("counter must start above zero")
	}
	// An S tuple with the same key must target the S member the R join
	// copy went to? No — the R join copy targets the S group by hash;
	// an S tuple with the same value stores on that same S member.
	st := tuple.New(tuple.S, 2, 100, tuple.Int(42))
	sDests, err := c.Route(st, at(100))
	if err != nil {
		t.Fatal(err)
	}
	if sDests[0].Exchange != "Sstore.exchange" {
		t.Errorf("S store dest = %+v", sDests[0])
	}
	if sDests[0].Key != join.Key {
		t.Errorf("S store key %s != R join key %s (collocation broken)", sDests[0].Key, join.Key)
	}
}

func TestCoreRouteBandBroadcast(t *testing.T) {
	c, err := NewCore(Config{ID: 1, Pred: predicate.NewBand(0, 0, 5), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	mustLayout(t, c, tuple.R, []int32{0, 1, 2}, 1)
	mustLayout(t, c, tuple.S, []int32{0, 1, 2, 3}, 1)
	dests, err := c.Route(tuple.New(tuple.R, 1, 0, tuple.Float(1.5)), at(0))
	if err != nil {
		t.Fatal(err)
	}
	// 1 store + broadcast to all 4 S members.
	if len(dests) != 5 {
		t.Fatalf("got %d destinations, want 5", len(dests))
	}
	stats := c.Stats()
	if stats.TuplesRouted != 1 || stats.JoinFanout != 4 || stats.MsgsOut != 5 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestCoreCountersMonotone(t *testing.T) {
	c := newEquiCore(t)
	mustLayout(t, c, tuple.R, []int32{0}, 1)
	mustLayout(t, c, tuple.S, []int32{0}, 1)
	var last uint64
	for i := 0; i < 100; i++ {
		dests, err := c.Route(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(i))), at(0))
		if err != nil {
			t.Fatal(err)
		}
		if dests[0].Env.Counter <= last {
			t.Fatalf("counter not monotone: %d after %d", dests[0].Env.Counter, last)
		}
		last = dests[0].Env.Counter
	}
}

func TestCorePunctuate(t *testing.T) {
	c := newEquiCore(t)
	mustLayout(t, c, tuple.R, []int32{0}, 1)
	mustLayout(t, c, tuple.S, []int32{0}, 1)
	routed, err := c.Route(tuple.New(tuple.R, 1, 0, tuple.Int(1)), at(0))
	if err != nil {
		t.Fatal(err)
	}
	dests := c.Punctuate()
	if len(dests) != 4 {
		t.Fatalf("punctuation destinations = %d, want 4 exchanges", len(dests))
	}
	exchanges := map[string]bool{}
	for _, d := range dests {
		exchanges[d.Exchange] = true
		if d.Key != "punct" {
			t.Errorf("punctuation key = %q", d.Key)
		}
		if d.Env.Kind != protocol.KindPunctuation || d.Env.Counter < routed[0].Env.Counter {
			t.Errorf("punctuation env = %+v, must cover stamp %d", d.Env, routed[0].Env.Counter)
		}
	}
	if len(exchanges) != 4 {
		t.Errorf("exchanges = %v", exchanges)
	}
}

func TestCoreMembers(t *testing.T) {
	c := newEquiCore(t)
	mustLayout(t, c, tuple.R, []int32{5, 3}, 1)
	got := c.Members(tuple.R)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Members = %v", got)
	}
	if c.ID() != 1 {
		t.Errorf("ID = %d", c.ID())
	}
}

// TestCopyLayoutsMatchesPeer: a router that copies a peer's layout
// tables fans out exactly like the peer — both S generations, minus the
// dead member — owns its copy, and names every member it can route to.
func TestCopyLayoutsMatchesPeer(t *testing.T) {
	peer := newEquiCore(t)
	mustLayout(t, peer, tuple.R, []int32{0, 1}, 2)
	mustLayout(t, peer, tuple.S, []int32{0, 1, 2}, 3)
	if err := peer.SetLayout(tuple.S, []int32{0, 1, 2, 3}, 4, 1000); err != nil {
		t.Fatal(err)
	}
	peer.RetireMember(tuple.S, 2)

	cp, err := NewCore(Config{ID: 2, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	if err != nil {
		t.Fatal(err)
	}
	cp.CopyLayouts(peer)
	for h := uint64(0); h < 64; h++ {
		want, _ := peer.groups[tuple.S].JoinTargets(h, true, 1000)
		got, _ := cp.groups[tuple.S].JoinTargets(h, true, 1000)
		if !slices.Equal(got, want) {
			t.Fatalf("hash %d: copy joins %v, peer joins %v", h, got, want)
		}
		if slices.Contains(got, 2) {
			t.Fatalf("hash %d: copy fans out to dead member 2: %v", h, got)
		}
	}
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if got, want := cp.groups[rel].Generations(), peer.groups[rel].Generations(); got != want {
			t.Errorf("%s: copy has %d generations, peer %d", rel, got, want)
		}
	}

	for i := 0; i < 64; i++ {
		dests, err := cp.Route(tuple.New(tuple.R, uint64(i+1), 1000, tuple.Int(int64(i))), at(1000))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dests {
			if d.Key == "" {
				t.Fatalf("destination without a member key: %+v", d)
			}
		}
	}

	if err := cp.SetLayout(tuple.S, []int32{0, 1}, 2, 2000); err != nil {
		t.Fatal(err)
	}
	if n := peer.groups[tuple.S].Generations(); n != 2 {
		t.Errorf("SetLayout on the copy changed the peer: %d S generations, want 2", n)
	}
}

func BenchmarkRouteEqui(b *testing.B) {
	c, _ := NewCore(Config{ID: 1, Pred: predicate.NewEqui(0, 0), Window: testWin()})
	c.SetLayout(tuple.R, []int32{0, 1, 2, 3}, 4, 0)
	c.SetLayout(tuple.S, []int32{0, 1, 2, 3}, 4, 0)
	now := at(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := tuple.New(tuple.R, uint64(i), int64(i), tuple.Int(int64(i&1023)))
		if _, err := c.Route(tp, now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteBandBroadcast8(b *testing.B) {
	c, _ := NewCore(Config{ID: 1, Pred: predicate.NewBand(0, 0, 1), Window: testWin()})
	c.SetLayout(tuple.R, []int32{0, 1, 2, 3, 4, 5, 6, 7}, 1, 0)
	c.SetLayout(tuple.S, []int32{0, 1, 2, 3, 4, 5, 6, 7}, 1, 0)
	now := at(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := tuple.New(tuple.R, uint64(i), int64(i), tuple.Float(float64(i)))
		if _, err := c.Route(tp, now); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGroupUnboundedWindowKeepsGenerationsForever(t *testing.T) {
	g := NewGroup(window.Unbounded())
	g.SetLayout([]int32{0, 1}, 2, 0)
	g.SetLayout([]int32{0, 1, 2}, 3, 60_000)
	// Even eons later, the old generation still receives join fan-out:
	// a full-history join never drains.
	farFuture := int64(1) << 50
	union := map[int32]bool{}
	for h := uint64(0); h < 20; h++ {
		jt, err := g.JoinTargets(h, true, farFuture)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range jt {
			union[m] = true
		}
	}
	if len(union) != 3 || g.Generations() != 2 {
		t.Errorf("union=%v generations=%d", union, g.Generations())
	}
}
