package ref

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// nestedLoop is the O(n²) join the oracle is checked against, written
// over real tuples with the engine's own predicate and window types.
func nestedLoop(ts []*tuple.Tuple, pred predicate.Predicate, win window.Sliding) []uint64 {
	var out []uint64
	for _, r := range ts {
		for _, s := range ts {
			if r.Rel == tuple.R && s.Rel == tuple.S && win.Contains(r.TS, s.TS) && pred.Match(r, s) {
				out = append(out, PairKey(r.Seq, s.Seq))
			}
		}
	}
	slices.Sort(out)
	return out
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	const n = 2000
	win := window.Sliding{Span: 40 * time.Millisecond}
	for _, tc := range []struct {
		name string
		pred Pred
		real predicate.Predicate
		keys int
	}{
		{"equi", Pred{}, predicate.NewEqui(0, 0), 40},
		{"band", Pred{Band: true, Width: 2}, predicate.NewBand(0, 0, 2), 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			in := Input{Rel: make([]uint8, n), Key: make([]int64, n), TS: func(i int) int64 { return int64(i) / 5 }}
			tuples := make([]*tuple.Tuple, n)
			for i := range tuples {
				in.Rel[i] = uint8(rng.Intn(2))
				in.Key[i] = int64(rng.Intn(tc.keys))
				tuples[i] = tuple.New(tuple.Relation(in.Rel[i]), uint64(i+1), in.TS(i), tuple.Int(in.Key[i]))
			}
			want := nestedLoop(tuples, tc.real, win)
			got := Join(in, tc.pred, win)
			if len(want) == 0 {
				t.Fatal("test stream joins nothing")
			}
			if !slices.Equal(got, want) {
				t.Fatalf("oracle has %d pairs, nested loop %d", len(got), len(want))
			}
			for i := range tuples { // Pred agrees with the engine's predicate
				j := rng.Intn(n)
				r, s := tuples[i], tuples[j]
				if tc.pred.Match(in.Key[i], in.Key[j]) != tc.real.Match(r, s) {
					t.Fatalf("Pred.Match(%d,%d) disagrees with %v", in.Key[i], in.Key[j], tc.real)
				}
			}
		})
	}
}

func TestVerifyCounts(t *testing.T) {
	exp := []uint64{PairKey(1, 2), PairKey(3, 4), PairKey(5, 6), PairKey(7, 8)}
	got := []uint64{PairKey(7, 8), PairKey(1, 2), PairKey(1, 2), PairKey(1, 2), PairKey(9, 9), PairKey(5, 6)}
	rep := Verify(exp, got)
	want := Report{Expected: 4, Got: 6, Missing: 1, Duplicated: 2, Spurious: 1}
	if rep != want {
		t.Fatalf("got %+v, want %+v", rep, want)
	}
	if rep.Failed() != 4 {
		t.Fatalf("Failed = %d", rep.Failed())
	}
	if rep := Verify(exp, slices.Clone(exp)); rep.Failed() != 0 {
		t.Fatalf("exact multiset reported %+v", rep)
	}
	if rep := Verify(nil, nil); rep.Failed() != 0 {
		t.Fatalf("empty reported %+v", rep)
	}
}
