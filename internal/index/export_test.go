package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// probeAll collects every tuple a probe emits, as sortable fingerprints
// (multiset comparison must survive implementation-defined order).
func probeAll(p interface {
	Probe(predicate.Plan, func(*tuple.Tuple) bool) bool
}, plan predicate.Plan) []string {
	var got []string
	p.Probe(plan, func(t *tuple.Tuple) bool {
		got = append(got, string(tuple.Marshal(t)))
		return true
	})
	sort.Strings(got)
	return got
}

// TestExportImportPreservesProbesAndExpiry is the export/import
// round-trip property test over every sub-index kind: a chained index
// rebuilt from its exported segments must answer point, range and scan
// probes identically and expire identically — the invariant the
// checkpoint layer's recovery rests on.
func TestExportImportPreservesProbesAndExpiry(t *testing.T) {
	win := window.Sliding{Span: 10_000 * 1_000_000} // 10s in ns units of time.Duration
	cases := []struct {
		name    string
		factory Factory
	}{
		{"hash", func() SubIndex { return NewHash(0) }},
		// "skiplist" names the case that covered the skip list before the
		// B+-tree replaced it; it now takes the ordered sub-index through
		// the planner, as a band-join joiner does.
		{"skiplist", ForPredicate(predicate.NewBand(0, 0, 1), tuple.R)},
		{"btree", func() SubIndex { return NewBTree(0) }},
	}
	plans := []predicate.Plan{
		{Kind: predicate.ProbeAll},
		{Kind: predicate.ProbePoint, Key: tuple.Int(5)},
		{Kind: predicate.ProbeRange, Lo: tuple.Int(3), Hi: tuple.Int(12), LoInc: true, HiInc: false},
		{Kind: predicate.ProbeRange, Lo: tuple.Int(7), LoInc: false},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				orig, err := NewChained(tc.factory, 500, win)
				if err != nil {
					t.Fatal(err)
				}
				ts := int64(0)
				for i := 0; i < 400; i++ {
					ts += rng.Int63n(40)
					orig.Insert(tuple.New(tuple.R, uint64(i+1), ts, tuple.Int(rng.Int63n(20)), tuple.String("x")))
				}
				segs := orig.ExportSegments()
				if len(segs) < 2 {
					t.Fatalf("workload produced %d segments; want several archived", len(segs))
				}
				restored, err := NewChained(tc.factory, 500, win)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.ImportSegments(segs); err != nil {
					t.Fatal(err)
				}
				if restored.Len() != orig.Len() || restored.NumSubIndexes() != orig.NumSubIndexes() {
					t.Fatalf("restored len=%d subs=%d, want len=%d subs=%d",
						restored.Len(), restored.NumSubIndexes(), orig.Len(), orig.NumSubIndexes())
				}
				if restored.MemBytes() != orig.MemBytes() {
					t.Fatalf("restored mem=%d, want %d", restored.MemBytes(), orig.MemBytes())
				}
				for pi, plan := range plans {
					if plan.Kind == predicate.ProbeRange && tc.name == "hash" {
						continue // hash sub-indexes serve equi predicates only
					}
					got, want := probeAll(restored, plan), probeAll(orig, plan)
					if len(got) != len(want) {
						t.Fatalf("plan %d: restored probe returned %d tuples, want %d", pi, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("plan %d: probe result %d differs", pi, i)
						}
					}
				}
				// Expiry must drop the same whole sub-indexes on both.
				oppTS := ts + win.SpanMillis()/2
				if do, dr := orig.Expire(oppTS), restored.Expire(oppTS); do != dr {
					t.Fatalf("expire dropped %d on restored, want %d", dr, do)
				}
				if restored.Len() != orig.Len() {
					t.Fatalf("post-expiry len=%d, want %d", restored.Len(), orig.Len())
				}
				got, want := probeAll(restored, predicate.Plan{Kind: predicate.ProbeAll}), probeAll(orig, predicate.Plan{Kind: predicate.ProbeAll})
				if len(got) != len(want) {
					t.Fatalf("post-expiry probe returned %d tuples, want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestFlatExportRoundTrip covers the monolithic baseline the same way:
// Flat is not a SubIndex, but its Export must enumerate exactly the
// live tuples so a checkpoint of the ablation configuration works too.
func TestFlatExportRoundTrip(t *testing.T) {
	win := window.Sliding{Span: 10_000 * 1_000_000}
	f := NewFlat(0, win)
	rng := rand.New(rand.NewSource(7))
	ts := int64(0)
	for i := 0; i < 200; i++ {
		ts += rng.Int63n(40)
		f.Insert(tuple.New(tuple.R, uint64(i+1), ts, tuple.Int(rng.Int63n(20))))
	}
	f.Expire(ts) // age out a prefix so head > 0
	var exported []*tuple.Tuple
	f.Export(func(t *tuple.Tuple) bool {
		exported = append(exported, t)
		return true
	})
	if len(exported) != f.Len() {
		t.Fatalf("exported %d tuples, live %d", len(exported), f.Len())
	}
	g := NewFlat(0, win)
	for _, tp := range exported {
		g.Insert(tp)
	}
	for _, key := range []int64{0, 5, 19} {
		plan := predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(key)}
		got, want := probeAll(g, plan), probeAll(f, plan)
		if len(got) != len(want) {
			t.Fatalf("key %d: restored probe returned %d, want %d", key, len(got), len(want))
		}
	}
}

// TestImportSegmentsRejectsMalformed pins the validation contract:
// recovery must not accept segment lists that could not have come from
// ExportSegments.
func TestImportSegmentsRejectsMalformed(t *testing.T) {
	win := window.Sliding{Span: 10_000 * 1_000_000}
	mk := func() *Chained {
		c, err := NewChained(func() SubIndex { return NewHash(0) }, 500, win)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	tp := tuple.New(tuple.R, 1, 1, tuple.Int(1))
	for name, segs := range map[string][]Segment{
		"empty":          {},
		"sealed-last":    {{ID: 1, Sealed: true, Tuples: []*tuple.Tuple{tp}}},
		"unsealed-inner": {{ID: 1, Sealed: false}, {ID: 2, Sealed: false}},
		"id-regression":  {{ID: 2, Sealed: true, Tuples: []*tuple.Tuple{tp}}, {ID: 2, Sealed: false}},
	} {
		if err := mk().ImportSegments(segs); err == nil {
			t.Errorf("%s: ImportSegments accepted malformed input", name)
		}
	}
}
