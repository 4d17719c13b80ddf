package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
)

// TestSortedShuffledRange: a range probe over a shuffled key set returns
// exactly the keys in range, in key order.
func TestSortedShuffledRange(t *testing.T) {
	b := NewSorted(0)
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

func TestSortedBoundsAndScans(t *testing.T) {
	b := NewSorted(0)
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

func TestSortedDuplicateKeysAndEarlyStop(t *testing.T) {
	b := NewSorted(0)
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

// inKeyOrder returns the tuples stable-sorted by attribute 0: key
// order, equal keys in their order in ts — what a Sorted fed ts in
// order must emit.
func inKeyOrder(ts []*tuple.Tuple) []*tuple.Tuple {
	out := append([]*tuple.Tuple(nil), ts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value(0).Compare(out[j].Value(0)) < 0 })
	return out
}

// crossingKeys returns the keys whose run of equal keys crosses a
// block boundary.
func crossingKeys(s *Sorted) []bKey {
	var out []bKey
	for bi := 1; bi < len(s.blocks); bi++ {
		prev := s.blocks[bi-1].keys
		if k := prev[len(prev)-1]; k.cmp(s.blocks[bi].keys[0]) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// TestSortedMatchesLinearScan is the ordered sub-index's reference-model
// property test: over random insert orders with heavy duplicates, Int,
// Float and mixed Int/Float/String keys, spanning at least three blocks
// with a hot key's run of equal keys crossing a block boundary, every
// probe shape — points (the invalid key included), inclusive,
// exclusive and unbounded ranges — returns exactly the tuples a linear
// scan admits, in key order with equal keys in insertion order, and an
// early stop visits exactly as many candidates as it asked for and
// reports that it stopped.
func TestSortedMatchesLinearScan(t *testing.T) {
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
				b := NewSorted(0)
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
				if len(b.blocks) < 3 {
					t.Fatalf("%d blocks; the workload must span at least three", len(b.blocks))
				}
				hotCrosses := false
				for _, k := range crossingKeys(b) {
					for h := int64(0); h < 5; h++ {
						hotCrosses = hotCrosses || k.cmp(keyOf(kind.key(h*100))) == 0
					}
				}
				if !hotCrosses {
					t.Fatal("no hot key's run crosses a block boundary; the workload must make one")
				}
				if b.Len() != n {
					t.Fatalf("Len = %d, want %d", b.Len(), n)
				}
				ordered := inKeyOrder(stored)
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
					var want []*tuple.Tuple
					for _, tp := range ordered {
						if scanMatches(plan, tp.Value(0)) {
							want = append(want, tp)
						}
					}
					var found []*tuple.Tuple
					if !b.Probe(plan, func(tp *tuple.Tuple) bool { found = append(found, tp); return true }) {
						t.Fatalf("plan %d (%+v): a probe that ran to the end reported a stop", pi, plan)
					}
					if !sameSeq(found, want) {
						t.Fatalf("plan %d (%+v): found %d tuples, the ordered scan %d, or in another order", pi, plan, len(found), len(want))
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
				exported, _ := drain(0, func(emit func(*tuple.Tuple) bool) bool { b.Export(emit); return true })
				if !sameSeq(exported, ordered) {
					t.Fatalf("Export walked %d tuples, want all %d in key order", len(exported), n)
				}
			})
		}
	}
}

// TestSortedMatchesLinearScanQuick runs the linear-scan check on
// quick-generated inputs, empty and tiny ones
// included, under every bound inclusivity, in key order with equal keys
// in insertion order.
func TestSortedMatchesLinearScanQuick(t *testing.T) {
	f := func(vals []int16, lo, hi int8) bool {
		b := NewSorted(0)
		var stored []*tuple.Tuple
		for i, v := range vals {
			tp := tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(v)))
			b.Insert(tp)
			stored = append(stored, tp)
		}
		ordered := inKeyOrder(stored)
		l, h := int64(lo), int64(hi)
		if l > h {
			l, h = h, l
		}
		for _, inc := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			plan := predicate.Plan{
				Kind: predicate.ProbeRange,
				Lo:   tuple.Int(l), Hi: tuple.Int(h), LoInc: inc[0], HiInc: inc[1],
			}
			var want []*tuple.Tuple
			for _, tp := range ordered {
				if scanMatches(plan, tp.Value(0)) {
					want = append(want, tp)
				}
			}
			if !sameSeq(collect(b, plan), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSortedEqualKeysKeepInsertionOrder: a key inserted more often than
// one block holds, interleaved with other keys below, above and equal
// to it (an Int key and the Float of the same number are equal), comes
// back from a point probe, a range probe and Export in insertion order.
func TestSortedEqualKeysKeepInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewSorted(0)
	var stored, hot []*tuple.Tuple
	for i := 0; len(hot) < 3*blockSize; i++ {
		var v tuple.Value
		switch r := rng.Intn(4); {
		case r == 0:
			v = tuple.Float(7)
		case r == 1:
			v = tuple.Int(7)
		default:
			v = tuple.Int(rng.Int63n(15))
		}
		tp := tuple.New(tuple.R, uint64(i+1), 0, v)
		b.Insert(tp)
		stored = append(stored, tp)
		if v.Compare(tuple.Int(7)) == 0 {
			hot = append(hot, tp)
		}
	}
	if runs := len(crossingKeys(b)); runs < 2 {
		t.Fatalf("the hot key crosses %d block boundaries, want at least 2", runs)
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(7)}); !sameSeq(got, hot) {
		t.Fatalf("point probe: %d tuples, want the %d hot ones in insertion order", len(got), len(hot))
	}
	ordered := inKeyOrder(stored)
	band := predicate.Plan{Kind: predicate.ProbeRange, Lo: tuple.Int(5), Hi: tuple.Float(9), LoInc: true, HiInc: true}
	var want []*tuple.Tuple
	for _, tp := range ordered {
		if scanMatches(band, tp.Value(0)) {
			want = append(want, tp)
		}
	}
	if got := collect(b, band); !sameSeq(got, want) {
		t.Fatalf("range [5, 9]: %d tuples, want %d in key order", len(got), len(want))
	}
	exported, _ := drain(0, func(emit func(*tuple.Tuple) bool) bool { b.Export(emit); return true })
	if !sameSeq(exported, ordered) {
		t.Fatalf("Export: %d tuples, want all %d in key order", len(exported), len(stored))
	}
}

// TestSortedAscendingFillsBlocks: ascending inserts take the append fast path
// across many blocks, leaving every block but the last full, and every
// key stays reachable.
func TestSortedAscendingFillsBlocks(t *testing.T) {
	b := NewSorted(0)
	const n = 50_000
	for i := 0; i < n; i++ {
		b.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(i))))
	}
	if b.Len() != n {
		t.Fatalf("Len = %d", b.Len())
	}
	if want := (n + blockSize - 1) / blockSize; len(b.blocks) != want {
		t.Fatalf("%d blocks, want %d full ones and a partial last", len(b.blocks), want)
	}
	for bi, blk := range b.blocks[:len(b.blocks)-1] {
		if len(blk.keys) != blockSize {
			t.Fatalf("block %d holds %d entries, want a full %d", bi, len(blk.keys), blockSize)
		}
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
// each theta comparison, gets the ordered sub-index on both relations,
// while equi predicates still hash.
func TestForPredicateOrderedKinds(t *testing.T) {
	preds := []predicate.Predicate{predicate.NewBand(0, 0, 1)}
	for _, op := range []predicate.Op{predicate.LT, predicate.LE, predicate.GT, predicate.GE} {
		preds = append(preds, predicate.NewTheta(0, 0, op))
	}
	for _, pred := range preds {
		for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
			if _, ok := ForPredicate(pred, rel)().(*Sorted); !ok {
				t.Errorf("%v on %v: want the ordered sub-index", pred, rel)
			}
		}
	}
	if _, ok := ForPredicate(predicate.NewEqui(0, 0), tuple.R)().(*Hash); !ok {
		t.Error("equi should still hash")
	}
}

// fuzzKey maps a byte to a key from a small mixed domain, so streams
// repeat keys: Ints in [-12, 12), the Floats of their halves (the
// integral ones equal to an Int) and eight one-letter Strings.
func fuzzKey(b byte) tuple.Value {
	v := int64(b/3)%24 - 12
	switch b % 3 {
	case 0:
		return tuple.Int(v)
	case 1:
		return tuple.Float(float64(v) / 2)
	}
	return tuple.String(string(rune('a' + (v+12)%8)))
}

// checkSortedOps decodes fuzz input four bytes an op and drives it
// through a Sorted, failing on the first probe or export whose
// emissions or return value differ from a linear scan of the inserted
// tuples, stable-sorted by key, under the same early stop. In an op
// (c, k1, k2, x), c&7 picks the kind — 0–2 insert key k1, 3 insert
// 100+4x keys drawn from the stream seeded by k1 and k2 (so a few ops
// cross blocks), 4 a point probe of k1 (the invalid key when c&32), 5 a
// range [k1, k2] (c&8 and c&16 make its ends inclusive, c&32 and c&64
// drop them), 6 a full scan, 7 an export — and x%8 is the early stop
// (0 runs to the end).
func checkSortedOps(t *testing.T, data []byte) {
	s := NewSorted(0)
	var stored []*tuple.Tuple
	insert := func(v tuple.Value) {
		tp := tuple.New(tuple.R, uint64(len(stored)+1), 0, v)
		s.Insert(tp)
		stored = append(stored, tp)
	}
	for op := data; len(op) >= 4; op = op[4:] {
		c, k1, k2, x := op[0], op[1], op[2], op[3]
		var plan predicate.Plan
		switch c & 7 {
		case 0, 1, 2:
			insert(fuzzKey(k1))
			continue
		case 3:
			r := uint32(k1)<<8 | uint32(k2)
			for i := 0; i < 100+4*int(x); i++ {
				r = r*1664525 + 1013904223
				insert(fuzzKey(byte(r >> 24)))
			}
			continue
		case 4:
			plan = predicate.Plan{Kind: predicate.ProbePoint, Key: fuzzKey(k1)}
			if c&32 != 0 {
				plan.Key = tuple.Value{}
			}
		case 5:
			plan = predicate.Plan{Kind: predicate.ProbeRange, Lo: fuzzKey(k1), Hi: fuzzKey(k2), LoInc: c&8 != 0, HiInc: c&16 != 0}
			if c&32 != 0 {
				plan.Lo = tuple.Value{}
			}
			if c&64 != 0 {
				plan.Hi = tuple.Value{}
			}
		case 6:
			plan = predicate.Plan{Kind: predicate.ProbeAll}
		}
		stop := int(x % 8)
		var want []*tuple.Tuple
		for _, tp := range inKeyOrder(stored) {
			if c&7 == 7 || scanMatches(plan, tp.Value(0)) {
				want = append(want, tp)
			}
		}
		var got []*tuple.Tuple
		var gotDone bool
		if c&7 == 7 {
			got, _ = drain(stop, func(emit func(*tuple.Tuple) bool) bool { s.Export(emit); return true })
			want, _ = modelScan(stop, want)
		} else {
			got, gotDone = drain(stop, func(emit func(*tuple.Tuple) bool) bool { return s.Probe(plan, emit) })
			var wantDone bool
			want, wantDone = modelScan(stop, want)
			if gotDone != wantDone {
				t.Fatalf("op %x (%+v), %d stored: Probe returned %v, the scan %v", op[:4], plan, len(stored), gotDone, wantDone)
			}
		}
		if !sameSeq(got, want) {
			t.Fatalf("op %x (%+v), %d stored: emitted %d tuples, the ordered scan %d, or in another order", op[:4], plan, len(stored), len(got), len(want))
		}
	}
	if s.Len() != len(stored) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(stored))
	}
}

// FuzzSorted runs the differential check on fuzzer-chosen op streams.
func FuzzSorted(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 4, 3, 0, 1, 5, 1, 9, 0, 0x3d, 2, 50, 3, 6, 0, 0, 2, 7, 0, 0, 5})
	f.Add([]byte{3, 1, 2, 200, 3, 7, 9, 255, 3, 4, 4, 100, 0x1d, 10, 40, 0, 0x0d, 30, 30, 3, 0x4c, 5, 0, 0, 0x24, 0, 0, 0, 4, 66, 0, 7, 7, 0, 0, 0})
	f.Fuzz(checkSortedOps)
}

// TestSortedInsertAllocations pins inserts at amortised growth: filling
// a fresh Sorted allocates when a block's arrays grow or split and when
// the block list grows, not per key, so 4 096 inserts of uniform keys
// cost at most 0.05 allocations each.
func TestSortedInsertAllocations(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	tuples := make([]*tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.New(tuple.R, uint64(i+1), int64(i), tuple.Int(rng.Int63n(1<<40)))
	}
	var s *Sorted
	a := testing.AllocsPerRun(20, func() {
		s = NewSorted(0)
		for _, tp := range tuples {
			s.Insert(tp)
		}
	})
	if per := a / n; per > 0.05 {
		t.Fatalf("%d inserts: %.0f allocations, %.3f per insert, want <= 0.05", n, a, per)
	}
	if s.Len() != n || len(s.blocks) < 8 {
		t.Fatalf("Len = %d in %d blocks, want %d in at least 8", s.Len(), len(s.blocks), n)
	}
}

// BenchmarkSortedInsertAscending inserts ascending keys, each tuple
// built in the loop: the append fast path.
func BenchmarkSortedInsertAscending(b *testing.B) {
	s := NewSorted(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Insert(tuple.New(tuple.R, uint64(i), int64(i), tuple.Int(int64(i*2654435761))))
	}
}

// BenchmarkSortedInsertUniform fills fresh sub-indexes to n entries
// with uniform keys, over and over: ns/op is one insert's average cost
// while a sub-index grows to n.
func BenchmarkSortedInsertUniform(b *testing.B) {
	for _, n := range []int{300, 1024, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tuples := make([]*tuple.Tuple, n)
			for i := range tuples {
				tuples[i] = tuple.New(tuple.R, uint64(i+1), int64(i), tuple.Int(rng.Int63n(1<<40)))
			}
			s := NewSorted(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Len() == n {
					s = NewSorted(0)
				}
				s.Insert(tuples[i%n])
			}
		})
	}
}
