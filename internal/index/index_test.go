package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

func collect(idx SubIndex, plan predicate.Plan) []*tuple.Tuple {
	var out []*tuple.Tuple
	idx.Probe(plan, func(t *tuple.Tuple) bool { out = append(out, t); return true })
	return out
}

func seqs(ts []*tuple.Tuple) []uint64 {
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = t.Seq
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestHashPointProbe(t *testing.T) {
	h := NewHash(0)
	for i := 0; i < 100; i++ {
		h.Insert(tuple.New(tuple.R, uint64(i), int64(i), tuple.Int(int64(i%10))))
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	got := collect(h, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(3)})
	if len(got) != 10 {
		t.Fatalf("point probe found %d, want 10", len(got))
	}
	for _, tp := range got {
		if tp.Value(0).AsInt() != 3 {
			t.Errorf("wrong tuple %v", tp)
		}
	}
	if got := collect(h, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(999)}); len(got) != 0 {
		t.Errorf("missing key returned %d", len(got))
	}
}

func TestHashFullScanAndEarlyStop(t *testing.T) {
	h := NewHash(0)
	for i := 0; i < 50; i++ {
		h.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(i))))
	}
	if got := collect(h, predicate.Plan{Kind: predicate.ProbeAll}); len(got) != 50 {
		t.Errorf("full scan found %d", len(got))
	}
	n := 0
	h.Probe(predicate.Plan{Kind: predicate.ProbeAll}, func(*tuple.Tuple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestHashNoAttrStoresAndScans(t *testing.T) {
	h := NewHash(-1)
	h.Insert(tuple.New(tuple.R, 1, 0, tuple.Int(1)))
	// Point probes degrade to full scans when no attribute is indexed.
	if got := collect(h, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(1)}); len(got) != 1 {
		t.Errorf("degraded probe found %d", len(got))
	}
	if h.MemBytes() <= 0 {
		t.Error("MemBytes should be positive")
	}
}

func TestSortedRangeInKeyOrder(t *testing.T) {
	b := NewSorted(0)
	perm := rand.New(rand.NewSource(1)).Perm(200)
	for i, v := range perm {
		b.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(v))))
	}
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
	got := collect(b, predicate.Plan{
		Kind: predicate.ProbeRange,
		Lo:   tuple.Int(50), Hi: tuple.Int(59), LoInc: true, HiInc: true,
	})
	if len(got) != 10 {
		t.Fatalf("range [50,59] found %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Value(0).Compare(got[i].Value(0)) > 0 {
			t.Error("range scan out of order")
		}
	}
}

func TestSortedBoundInclusivity(t *testing.T) {
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
}

func TestSortedUnboundedSides(t *testing.T) {
	b := NewSorted(0)
	for v := 0; v < 10; v++ {
		b.Insert(tuple.New(tuple.R, uint64(v), 0, tuple.Int(int64(v))))
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeRange, Hi: tuple.Int(4), HiInc: false}); len(got) != 4 {
		t.Errorf("(-inf,4) = %d", len(got))
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeRange, Lo: tuple.Int(7), LoInc: true}); len(got) != 3 {
		t.Errorf("[7,inf) = %d", len(got))
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeRange}); len(got) != 10 {
		t.Errorf("unbounded = %d", len(got))
	}
	if got := collect(b, predicate.Plan{Kind: predicate.ProbeAll}); len(got) != 10 {
		t.Errorf("ProbeAll = %d", len(got))
	}
}

func TestSortedPointProbeDuplicateKeys(t *testing.T) {
	b := NewSorted(0)
	for i := 0; i < 30; i++ {
		b.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(i%3))))
	}
	got := collect(b, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(1)})
	if len(got) != 10 {
		t.Errorf("duplicates for key 1 = %d", len(got))
	}
}

func TestSortedMatchesReferenceModel(t *testing.T) {
	f := func(vals []int16, lo, hi int8) bool {
		b := NewSorted(0)
		for i, v := range vals {
			b.Insert(tuple.New(tuple.R, uint64(i), 0, tuple.Int(int64(v))))
		}
		l, h := int64(lo), int64(hi)
		if l > h {
			l, h = h, l
		}
		got := collect(b, predicate.Plan{
			Kind: predicate.ProbeRange,
			Lo:   tuple.Int(l), Hi: tuple.Int(h), LoInc: true, HiInc: true,
		})
		want := 0
		for _, v := range vals {
			if int64(v) >= l && int64(v) <= h {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func testWindow() window.Sliding { return window.Sliding{Span: 10 * time.Second} }

func newChainedHash(t *testing.T, periodMs int64) *Chained {
	t.Helper()
	c, err := NewChained(func() SubIndex { return NewHash(0) }, periodMs, testWindow())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainedArchiving(t *testing.T) {
	c := newChainedHash(t, 1000)
	// 5 seconds of data at 1 tuple per 100ms → ~5 archives.
	for i := 0; i < 50; i++ {
		c.Insert(tuple.New(tuple.R, uint64(i), int64(i*100), tuple.Int(int64(i))))
	}
	if c.Len() != 50 {
		t.Fatalf("Len = %d", c.Len())
	}
	if n := c.NumSubIndexes(); n < 4 || n > 7 {
		t.Errorf("NumSubIndexes = %d, want ≈5", n)
	}
	if c.Archives() == 0 {
		t.Error("no archive operations recorded")
	}
}

func TestChainedExpireDropsWholeSubIndexes(t *testing.T) {
	c := newChainedHash(t, 1000)
	for i := 0; i < 50; i++ {
		c.Insert(tuple.New(tuple.R, uint64(i), int64(i*1000), tuple.Int(1)))
	}
	before := c.NumSubIndexes()
	// Opposite tuple at t=49s: window 10s → tuples with ts < 39s-ish go.
	dropped := c.Expire(49000)
	if dropped == 0 {
		t.Fatal("nothing expired")
	}
	if c.NumSubIndexes() >= before {
		t.Error("no sub-index was dropped")
	}
	if c.Len() != 50-dropped {
		t.Errorf("Len = %d after dropping %d", c.Len(), dropped)
	}
	if c.Dropped() != int64(dropped) {
		t.Errorf("Dropped = %d", c.Dropped())
	}
	// All remaining tuples must still be within the window per Theorem 1
	// (no live tuple may be expired).
	c.Probe(predicate.Plan{Kind: predicate.ProbeAll}, func(tp *tuple.Tuple) bool {
		if testWindow().Expired(tp.TS, 49000) && tp.TS < 38000 {
			// Sub-index granularity may retain a few stale tuples whose
			// sub-index still holds fresh ones — but only within one
			// archive period of the cutoff.
			t.Errorf("tuple at %d retained beyond archive slack", tp.TS)
		}
		return true
	})
}

func TestChainedNeverDropsLiveTuples(t *testing.T) {
	// Safety: Expire must never drop a tuple that is still in-window.
	f := func(tsDeltas []uint8, oppSec uint8) bool {
		c, err := NewChained(func() SubIndex { return NewHash(0) }, 500, testWindow())
		if err != nil {
			return false
		}
		ts := int64(0)
		live := map[uint64]int64{}
		for i, d := range tsDeltas {
			ts += int64(d) * 10
			c.Insert(tuple.New(tuple.R, uint64(i), ts, tuple.Int(int64(i))))
			live[uint64(i)] = ts
		}
		opp := int64(oppSec) * 100
		c.Expire(opp)
		// Every tuple still in-window must be probeable.
		found := map[uint64]bool{}
		c.Probe(predicate.Plan{Kind: predicate.ProbeAll}, func(tp *tuple.Tuple) bool {
			found[tp.Seq] = true
			return true
		})
		for seq, t := range live {
			if !testWindow().Expired(t, opp) && !found[seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChainedMemAccounting(t *testing.T) {
	c := newChainedHash(t, 1000)
	if c.MemBytes() != 0 {
		t.Errorf("empty MemBytes = %d", c.MemBytes())
	}
	for i := 0; i < 100; i++ {
		c.Insert(tuple.New(tuple.R, uint64(i), int64(i*500), tuple.Int(int64(i))))
	}
	full := c.MemBytes()
	if full <= 0 {
		t.Fatal("MemBytes should grow")
	}
	c.Expire(1 << 40) // everything expires
	if c.Len() != 0 {
		// The active sub-index never expires, so a few tuples linger.
		if c.Len() > 5 {
			t.Errorf("Len after full expiry = %d", c.Len())
		}
	}
	if c.MemBytes() >= full {
		t.Errorf("MemBytes did not shrink: %d -> %d", full, c.MemBytes())
	}
}

func TestChainedProbeSpansAllSubIndexes(t *testing.T) {
	c := newChainedHash(t, 100)
	// Key 7 appears in several archive periods.
	for i := 0; i < 30; i++ {
		c.Insert(tuple.New(tuple.R, uint64(i), int64(i*50), tuple.Int(7)))
	}
	var got []*tuple.Tuple
	c.Probe(predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(7)}, func(t *tuple.Tuple) bool {
		got = append(got, t)
		return true
	})
	if len(got) != 30 {
		t.Errorf("probe found %d/30 across sub-indexes", len(got))
	}
	want := seqs(got)
	for i, s := range want {
		if s != uint64(i) {
			t.Fatalf("missing seq %d", i)
		}
	}
}

func TestChainedProbeEarlyStop(t *testing.T) {
	c := newChainedHash(t, 100)
	for i := 0; i < 30; i++ {
		c.Insert(tuple.New(tuple.R, uint64(i), int64(i*50), tuple.Int(7)))
	}
	n := 0
	c.Probe(predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(7)}, func(*tuple.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestChainedRejectsBadPeriod(t *testing.T) {
	if _, err := NewChained(func() SubIndex { return NewHash(0) }, 0, testWindow()); err == nil {
		t.Error("zero period accepted")
	}
}

func TestForPredicate(t *testing.T) {
	if _, ok := ForPredicate(predicate.NewEqui(0, 0), tuple.R)().(*Hash); !ok {
		t.Error("equi should get a hash index")
	}
	if _, ok := ForPredicate(predicate.NewBand(0, 0, 1), tuple.R)().(*Sorted); !ok {
		t.Error("band should get the ordered sub-index")
	}
	if _, ok := ForPredicate(predicate.NewTheta(0, 0, predicate.LT), tuple.S)().(*Sorted); !ok {
		t.Error("theta should get the ordered sub-index")
	}
	fn := predicate.NewFunc("x", func(r, s *tuple.Tuple) bool { return true })
	if _, ok := ForPredicate(fn, tuple.R)().(*Hash); !ok {
		t.Error("func should get a scan-only hash store")
	}
}

func TestFlatEviction(t *testing.T) {
	f := NewFlat(0, testWindow())
	for i := 0; i < 100; i++ {
		f.Insert(tuple.New(tuple.R, uint64(i), int64(i*1000), tuple.Int(int64(i%5))))
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d", f.Len())
	}
	n := f.Expire(50000) // cutoff just under 40s → ts 0..39s expire
	if n != 40 {
		t.Errorf("expired %d, want 40", n)
	}
	if f.Len() != 60 {
		t.Errorf("Len = %d", f.Len())
	}
	if f.Dropped() != 40 {
		t.Errorf("Dropped = %d", f.Dropped())
	}
	// Probing must only return live tuples.
	got := collect(f, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(2)})
	for _, tp := range got {
		if tp.TS < 40000 {
			t.Errorf("expired tuple %v returned by probe", tp)
		}
	}
	if got := collect(f, predicate.Plan{Kind: predicate.ProbeAll}); len(got) != 60 {
		t.Errorf("full scan after expiry = %d", len(got))
	}
}

func TestFlatMemShrinksOnExpire(t *testing.T) {
	f := NewFlat(0, testWindow())
	for i := 0; i < 1000; i++ {
		f.Insert(tuple.New(tuple.R, uint64(i), int64(i*100), tuple.Int(int64(i))))
	}
	before := f.MemBytes()
	f.Expire(1 << 40)
	if f.Len() != 0 || f.MemBytes() >= before {
		t.Errorf("Len=%d mem %d -> %d", f.Len(), before, f.MemBytes())
	}
	if f.MemBytes() != 0 {
		t.Errorf("mem after full expiry = %d", f.MemBytes())
	}
}

func TestFlatCompaction(t *testing.T) {
	f := NewFlat(0, testWindow())
	// Push enough through to trigger fifo compaction.
	for round := 0; round < 10; round++ {
		base := int64(round) * 100000
		for i := 0; i < 600; i++ {
			f.Insert(tuple.New(tuple.R, uint64(i), base+int64(i*10), tuple.Int(int64(i))))
		}
		f.Expire(base + 100000)
	}
	if f.Len() > 1300 {
		t.Errorf("Len = %d, expiry not keeping up", f.Len())
	}
}

func BenchmarkHashInsert(b *testing.B) {
	h := NewHash(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Insert(tuple.New(tuple.R, uint64(i), int64(i), tuple.Int(int64(i&1023))))
	}
}

func BenchmarkChainedInsertExpire(b *testing.B) {
	c, _ := NewChained(func() SubIndex { return NewHash(0) }, 1000, testWindow())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := int64(i * 10)
		c.Insert(tuple.New(tuple.R, uint64(i), ts, tuple.Int(int64(i&1023))))
		if i%100 == 0 {
			c.Expire(ts)
		}
	}
}

func BenchmarkFlatInsertExpire(b *testing.B) {
	f := NewFlat(0, testWindow())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := int64(i * 10)
		f.Insert(tuple.New(tuple.R, uint64(i), ts, tuple.Int(int64(i&1023))))
		if i%100 == 0 {
			f.Expire(ts)
		}
	}
}
