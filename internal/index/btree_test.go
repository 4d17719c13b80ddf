package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

func TestBTreeOrderedRange(t *testing.T) {
	b := NewBTree(0)
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for i, v := range perm {
		b.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(v))))
	}
	if b.Len() != 500 {
		t.Fatalf("Len = %d", b.Len())
	}
	got := collect(b, predicate.Plan{
		Kind: predicate.ProbeRange,
		Lo:   tuple.Int(100), Hi: tuple.Int(199), LoInc: true, HiInc: true,
	})
	if len(got) != 100 {
		t.Fatalf("range [100,199] found %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Value(0).Compare(got[i].Value(0)) > 0 {
			t.Fatal("range scan out of order")
		}
	}
}

func TestBTreeBoundsAndScans(t *testing.T) {
	b := NewBTree(0)
	for v := 0; v < 10; v++ {
		b.Insert(tuple.New(tuple.R, uint64(v), 0, tuple.Int(int64(v))))
	}
	cases := []struct {
		lo, hi       int64
		loInc, hiInc bool
		want         int
	}{
		{3, 6, true, true, 4},
		{3, 6, false, true, 3},
		{3, 6, true, false, 3},
		{3, 6, false, false, 2},
	}
	for _, c := range cases {
		got := collect(b, predicate.Plan{
			Kind: predicate.ProbeRange,
			Lo:   tuple.Int(c.lo), Hi: tuple.Int(c.hi), LoInc: c.loInc, HiInc: c.hiInc,
		})
		if len(got) != c.want {
			t.Errorf("range(%d,%d,%v,%v) = %d, want %d", c.lo, c.hi, c.loInc, c.hiInc, len(got), c.want)
		}
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeRange, Hi: tuple.Int(4), HiInc: false}); len(got) != 4 {
		t.Errorf("(-inf,4) = %d", len(got))
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeRange, Lo: tuple.Int(7), LoInc: true}); len(got) != 3 {
		t.Errorf("[7,inf) = %d", len(got))
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeAll}); len(got) != 10 {
		t.Errorf("ProbeAll = %d", len(got))
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(5)}); len(got) != 1 {
		t.Errorf("point = %d", len(got))
	}
}

func TestBTreeDuplicateKeysAndEarlyStop(t *testing.T) {
	b := NewBTree(0)
	for i := 0; i < 300; i++ {
		b.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(i%3))))
	}
	got := collect(b, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(1)})
	if len(got) != 100 {
		t.Errorf("duplicates for key 1 = %d", len(got))
	}
	n := 0
	b.Probe(predicate.Plan{Kind: predicate.ProbeAll}, func(*tuple.Tuple) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
	if b.MemBytes() <= 0 {
		t.Error("MemBytes should be positive")
	}
}

// TestKeyOrderMatchesValueCompare pins the compare-ready key to the
// order it replaces: for every pair of values across the edge cases of
// each kind, keyOf(a).cmp(keyOf(b)) is exactly a.Compare(b).
func TestKeyOrderMatchesValueCompare(t *testing.T) {
	const p53 = int64(1) << 53
	vals := []tuple.Value{{}}
	for _, i := range []int64{0, 1, -1, 42, p53 - 1, p53, p53 + 1, -p53 - 1, -p53, math.MinInt64, math.MaxInt64} {
		vals = append(vals, tuple.Int(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 42, float64(p53), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), float64(math.MaxInt64)} {
		vals = append(vals, tuple.Float(f))
	}
	for _, s := range []string{"", "\x00", "0", "42", "a", "ab", "b", "\xff"} {
		vals = append(vals, tuple.String(s))
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := keyOf(a).cmp(keyOf(b)), a.Compare(b); got != want {
				t.Errorf("keyOf(%#v).cmp(keyOf(%#v)) = %d, Value.Compare says %d", a, b, got, want)
			}
		}
	}
}

// scanMatches is the reference model: does a linear scan's plan test
// admit key? An invalid bound, the point key included, is unbounded.
func scanMatches(plan predicate.Plan, key tuple.Value) bool {
	switch plan.Kind {
	case predicate.ProbePoint:
		return !plan.Key.IsValid() || key.Compare(plan.Key) == 0
	case predicate.ProbeRange:
		if plan.Lo.IsValid() {
			if c := key.Compare(plan.Lo); c < 0 || (c == 0 && !plan.LoInc) {
				return false
			}
		}
		if plan.Hi.IsValid() {
			if c := key.Compare(plan.Hi); c > 0 || (c == 0 && !plan.HiInc) {
				return false
			}
		}
	}
	return true
}

// TestBTreeMatchesLinearScan is the B+-tree's reference-model property
// test: over random insert orders with heavy duplicates, Int, Float and
// mixed Int/Float/String keys, and enough distinct keys that inner
// nodes split, every probe shape — points (the invalid key included),
// inclusive, exclusive and unbounded ranges — returns exactly the seq
// multiset a linear scan admits, and an early stop visits exactly as
// many candidates as it asked for and reports that it stopped.
func TestBTreeMatchesLinearScan(t *testing.T) {
	kinds := []struct {
		name string
		key  func(k int64) tuple.Value
	}{
		{"int", func(k int64) tuple.Value { return tuple.Int(k) }},
		{"float", func(k int64) tuple.Value { return tuple.Float(float64(k) / 4) }},
		{"mixed", func(k int64) tuple.Value {
			switch (k%3 + 3) % 3 {
			case 0:
				return tuple.Int(k)
			case 1:
				return tuple.Float(float64(k) / 4)
			}
			return tuple.String(strconv.FormatInt(k, 36))
		}},
	}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				const n = 3000
				b := NewBTree(0)
				stored := make([]*tuple.Tuple, 0, n)
				for i := 0; i < n; i++ {
					// A third of the tuples share five hot keys; the rest
					// spread over a wide domain, negatives included.
					k := rng.Int63n(4000) - 1000
					if rng.Intn(3) == 0 {
						k = int64(rng.Intn(5)) * 100
					}
					tp := tuple.New(tuple.R, uint64(i+1), 0, kind.key(k))
					b.Insert(tp)
					stored = append(stored, tp)
				}
				if root, ok := b.root.(*bInner); !ok {
					t.Fatal("root is a leaf; the workload must split nodes")
				} else if _, ok := root.children[0].(*bInner); !ok {
					t.Fatal("tree has one inner level; the workload must split inner nodes")
				}
				if b.Len() != n {
					t.Fatalf("Len = %d, want %d", b.Len(), n)
				}
				var plans []predicate.Plan
				for i := 0; i < 40; i++ {
					lo, hi := rng.Int63n(4400)-1200, rng.Int63n(4400)-1200
					if lo > hi {
						lo, hi = hi, lo
					}
					if i%8 == 0 {
						lo, hi = 200, 200 // a hot key as a degenerate range
					}
					plans = append(plans,
						predicate.Plan{Kind: predicate.ProbePoint, Key: kind.key(lo)},
						predicate.Plan{Kind: predicate.ProbeRange, Lo: kind.key(lo), Hi: kind.key(hi), LoInc: true, HiInc: true},
						predicate.Plan{Kind: predicate.ProbeRange, Lo: kind.key(lo), Hi: kind.key(hi)},
						predicate.Plan{Kind: predicate.ProbeRange, Lo: kind.key(lo), Hi: kind.key(hi), LoInc: true},
						predicate.Plan{Kind: predicate.ProbeRange, Lo: kind.key(lo), Hi: kind.key(hi), HiInc: true},
						predicate.Plan{Kind: predicate.ProbeRange, Lo: kind.key(lo), LoInc: i%2 == 0},
						predicate.Plan{Kind: predicate.ProbeRange, Hi: kind.key(hi), HiInc: i%2 == 0},
					)
				}
				plans = append(plans,
					predicate.Plan{Kind: predicate.ProbePoint},
					predicate.Plan{Kind: predicate.ProbeRange},
					predicate.Plan{Kind: predicate.ProbeAll},
				)
				for pi, plan := range plans {
					var want []uint64
					for _, tp := range stored {
						if scanMatches(plan, tp.Value(0)) {
							want = append(want, tp.Seq)
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					var found []*tuple.Tuple
					if !b.Probe(plan, func(tp *tuple.Tuple) bool { found = append(found, tp); return true }) {
						t.Fatalf("plan %d (%+v): a probe that ran to the end reported a stop", pi, plan)
					}
					got := seqs(found)
					if len(got) != len(want) {
						t.Fatalf("plan %d (%+v): btree found %d, scan %d", pi, plan, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("plan %d (%+v): seq %d is %d, scan has %d", pi, plan, i, got[i], want[i])
						}
					}
					if len(want) < 2 {
						continue
					}
					stop := 1 + rng.Intn(len(want)-1)
					visited := 0
					done := b.Probe(plan, func(tp *tuple.Tuple) bool {
						visited++
						if !scanMatches(plan, tp.Value(0)) {
							t.Fatalf("plan %d: early-stopped scan emitted a non-matching key %v", pi, tp.Value(0))
						}
						return visited < stop
					})
					if visited != stop || done {
						t.Fatalf("plan %d: early stop at %d visited %d, reported done=%v", pi, stop, visited, done)
					}
				}
				exported := 0
				b.Export(func(*tuple.Tuple) bool { exported++; return true })
				if exported != n {
					t.Fatalf("Export walked %d tuples, want %d", exported, n)
				}
			})
		}
	}
}

// TestBTreeMatchesSkipList once checked the B+-tree against the skip
// list it replaced. With one ordered index left, it checks the B+-tree
// against the linear-scan model on quick-generated inputs, empty and
// tiny ones included, over every bound inclusivity.
func TestBTreeMatchesSkipList(t *testing.T) {
	f := func(vals []int16, lo, hi int8, loInc, hiInc bool) bool {
		b := NewBTree(0)
		var stored []*tuple.Tuple
		for i, v := range vals {
			tp := tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(v)))
			b.Insert(tp)
			stored = append(stored, tp)
		}
		l, h := int64(lo), int64(hi)
		if l > h {
			l, h = h, l
		}
		plan := predicate.Plan{
			Kind: predicate.ProbeRange,
			Lo:   tuple.Int(l), Hi: tuple.Int(h), LoInc: loInc, HiInc: hiInc,
		}
		var want []*tuple.Tuple
		for _, tp := range stored {
			if scanMatches(plan, tp.Value(0)) {
				want = append(want, tp)
			}
		}
		return slices.Equal(seqs(collect(b, plan)), seqs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBTreeDeepSplits(t *testing.T) {
	// Enough sequential inserts to force several levels of inner-node
	// splits; every key must remain reachable.
	b := NewBTree(0)
	const n = 50_000
	for i := 0; i < n; i++ {
		b.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(i))))
	}
	if b.Len() != n {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeRange}); len(got) != n {
		t.Fatalf("full range = %d", len(got))
	}
	for _, probe := range []int64{0, 1, n / 2, n - 1} {
		if got := collect(b, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(probe)}); len(got) != 1 {
			t.Errorf("point %d = %d hits", probe, len(got))
		}
	}
}

// TestForPredicateOrderedKinds: every ordered predicate kind, band and
// each theta comparison, gets a B+-tree on both relations, while equi
// predicates still hash.
func TestForPredicateOrderedKinds(t *testing.T) {
	preds := []predicate.Predicate{predicate.NewBand(0, 0, 1)}
	for _, op := range []predicate.Op{predicate.LT, predicate.LE, predicate.GT, predicate.GE} {
		preds = append(preds, predicate.NewTheta(0, 0, op))
	}
	for _, pred := range preds {
		for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
			if _, ok := ForPredicate(pred, rel)().(*BTree); !ok {
				t.Errorf("%v on %v: want a B+-tree", pred, rel)
			}
		}
	}
	if _, ok := ForPredicate(predicate.NewEqui(0, 0), tuple.R)().(*Hash); !ok {
		t.Error("equi should still hash")
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	bt := NewBTree(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Insert(tuple.New(tuple.R, uint64(i), int64(i), tuple.Int(int64(i*2654435761))))
	}
}
