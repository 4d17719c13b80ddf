package index

import (
	"math/rand"
	"testing"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// bandChain builds the chain of band_inproc's shape: a 200 ms window at
// the default W/16 archive period (about 16 B+-tree sub-indexes) holding
// 5 000 tuples whose Int keys are uniform over [0, 100 000), their
// timestamps spread evenly across the window.
func bandChain(tb testing.TB) *Chained {
	tb.Helper()
	win := window.Sliding{Span: 200 * time.Millisecond}
	c, err := NewChained(func() SubIndex { return NewBTree(0) }, win.SpanMillis()/16, win)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	for i := 0; i < n; i++ {
		c.Insert(tuple.New(tuple.R, uint64(i+1), int64(i)*win.SpanMillis()/n, tuple.Int(rng.Int63n(100_000))))
	}
	if c.NumSubIndexes() < 12 {
		tb.Fatalf("chain has %d sub-indexes, want about 16", c.NumSubIndexes())
	}
	return c
}

// bandPred is band_inproc's predicate: width 2, so its plans are Float
// bounds around the Int keys of bandChain.
var bandPred = predicate.NewBand(0, 0, 2)

// bandProbes returns n S tuples with uniform keys to probe bandChain.
func bandProbes(n int) []*tuple.Tuple {
	rng := rand.New(rand.NewSource(2))
	probes := make([]*tuple.Tuple, n)
	for i := range probes {
		probes[i] = tuple.New(tuple.S, uint64(i+1), 0, tuple.Int(rng.Int63n(100_000)))
	}
	return probes
}

// TestProbeStopsWhenEmitDeclines: for every sub-index kind, a chain of
// each, and a sharded index fanning out or going to one shard, an emit
// that returns false after s candidates ends the probe after exactly s
// visits — for every s, so each sub-index and shard boundary is crossed
// — and the probe returns false; a probe that runs out of candidates
// returns true.
func TestProbeStopsWhenEmitDeclines(t *testing.T) {
	win := testWindow()
	hash := func() SubIndex { return NewHash(0) }
	btree := func() SubIndex { return NewBTree(0) }
	chain := func(f Factory) *Chained {
		c, err := NewChained(f, 100, win)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sharded := func(f Factory) *Sharded {
		x, err := NewSharded(f, 100, win, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	type prober interface {
		Insert(*tuple.Tuple)
		Probe(predicate.Plan, func(*tuple.Tuple) bool) bool
	}
	point := predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(7)}
	band := predicate.Plan{Kind: predicate.ProbeRange, Lo: tuple.Int(3), Hi: tuple.Int(12), LoInc: true}
	cases := []struct {
		name string
		idx  prober
		plan predicate.Plan
	}{
		{"btree/range", NewBTree(0), band},
		{"hash/point", NewHash(0), point},
		{"hash/all", NewHash(0), predicate.Plan{Kind: predicate.ProbeAll}},
		{"chained-btree/range", chain(btree), band},
		{"chained-hash/point", chain(hash), point},
		{"sharded-btree/range", sharded(btree), band},
		{"sharded-btree/all", sharded(btree), predicate.Plan{Kind: predicate.ProbeAll}},
		{"sharded-hash/point", sharded(hash), point},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 240; i++ {
				tc.idx.Insert(tuple.New(tuple.R, uint64(i+1), int64(i*10), tuple.Int(int64(i%16))))
			}
			total := 0
			if !tc.idx.Probe(tc.plan, func(*tuple.Tuple) bool { total++; return true }) {
				t.Fatal("a probe that ran to the end reported a stop")
			}
			if total < 2 {
				t.Fatalf("plan finds %d candidates; the test needs several", total)
			}
			for stop := 1; stop <= total; stop++ {
				visited := 0
				done := tc.idx.Probe(tc.plan, func(*tuple.Tuple) bool { visited++; return visited < stop })
				if visited != stop || done {
					t.Fatalf("stop after %d of %d: visited %d, Probe returned %v", stop, total, visited, done)
				}
			}
		})
	}
}

// TestChainedProbeAllocations pins the probe path at zero allocations:
// a band probe over a chain of 16 B+-tree sub-indexes and a point probe
// over a chain of hash sub-indexes. A per-probe closure around emit, or
// a plan that escapes to the heap on its way through the SubIndex
// interface, fails here before any timing moves.
func TestChainedProbeAllocations(t *testing.T) {
	hits := 0
	emit := func(*tuple.Tuple) bool { hits++; return true }

	// Plans are built per probe into a local, as the joiner builds them.
	band := bandChain(t)
	probes := bandProbes(64)
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		plan := bandPred.Plan(probes[i%len(probes)])
		band.Probe(plan, emit)
		i++
	}); a != 0 {
		t.Errorf("band probe over %d B+-tree sub-indexes: %.2f allocs, want 0", band.NumSubIndexes(), a)
	}

	equi := newChainedHash(t, 100)
	for j := 0; j < 2000; j++ {
		equi.Insert(tuple.New(tuple.R, uint64(j+1), int64(j), tuple.Int(int64(j%50))))
	}
	equiPred := predicate.NewEqui(0, 0)
	probe := tuple.New(tuple.S, 1, 0, tuple.Int(7))
	if a := testing.AllocsPerRun(200, func() {
		plan := equiPred.Plan(probe)
		equi.Probe(plan, emit)
	}); a != 0 {
		t.Errorf("point probe over %d hash sub-indexes: %.2f allocs, want 0", equi.NumSubIndexes(), a)
	}
	if hits == 0 {
		t.Fatal("no probe found a candidate")
	}
}

// BenchmarkChainedBandProbe is one band probe (width 2) through a chain
// of band_inproc's shape, candidates counted and discarded.
func BenchmarkChainedBandProbe(b *testing.B) {
	c := bandChain(b)
	probes := bandProbes(1024)
	plans := make([]predicate.Plan, len(probes))
	for i, p := range probes {
		plans[i] = bandPred.Plan(p)
	}
	hits := 0
	emit := func(*tuple.Tuple) bool { hits++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(plans[i%len(plans)], emit)
	}
}
