// Package ref is the benchmark's reference join: a small, obviously
// correct windowed join over the generated stream that yields the
// expected result multiset, and a verifier that compares the pairs an
// engine actually emitted against it.
//
// Window semantics are window.Sliding.Contains — a pair joins when its
// event times are within the span in either direction. That is exactly
// what the engine computes when every joiner processes tuples in
// event-time order, which the benchmark's topology (one generator, one
// router) guarantees; see bench/README.md for what happens otherwise.
package ref

import (
	"slices"
	"sort"

	"bistream/internal/window"
)

// Input is the stream in ingest order, as columns. TS must be
// non-decreasing; tuple i has sequence number i+1.
type Input struct {
	Rel []uint8 // 0 = R, 1 = S
	Key []int64
	TS  func(i int) int64
}

// Pred is the join predicate over the integer key column: equality
// when Band is false, |r-s| <= Width otherwise.
type Pred struct {
	Band  bool
	Width int64
}

// Match reports whether two keys join.
func (p Pred) Match(a, b int64) bool {
	if !p.Band {
		return a == b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= p.Width
}

// PairKey packs a result's identity (R-side seq, S-side seq) into one
// sortable word. Sequence numbers are ingest indexes + 1 and fit 32
// bits for any run this benchmark performs.
func PairKey(rSeq, sSeq uint64) uint64 { return rSeq<<32 | sSeq }

// Join computes the expected result multiset of joining the stream's
// two relations under pred inside win, as sorted pair keys. Every pair
// occurs once.
func Join(in Input, pred Pred, win window.Sliding) []uint64 {
	var exp []uint64
	emit := func(i, j int) { // j < i, opposite relations, keys match
		if !win.Contains(in.TS(j), in.TS(i)) {
			return
		}
		r, s := uint64(j+1), uint64(i+1)
		if in.Rel[i] == 0 {
			r, s = s, r
		}
		exp = append(exp, PairKey(r, s))
	}
	if pred.Band {
		bandSweep(in, pred, emit)
	} else {
		hashJoin(in, win, emit)
	}
	slices.Sort(exp)
	return exp
}

// hashJoin is the equi-join: one bucket of earlier tuple indexes per
// (relation, key), pruned from the front as the window slides.
func hashJoin(in Input, win window.Sliding, emit func(i, j int)) {
	var buckets [2]map[int64][]int
	buckets[0], buckets[1] = map[int64][]int{}, map[int64][]int{}
	for i := range in.Rel {
		rel, key, ts := in.Rel[i], in.Key[i], in.TS(i)
		opp := buckets[1-rel][key]
		stale := 0
		for stale < len(opp) && !win.Contains(in.TS(opp[stale]), ts) {
			stale++
		}
		if stale > 0 {
			opp = opp[stale:]
			buckets[1-rel][key] = opp
		}
		for _, j := range opp {
			emit(i, j)
		}
		buckets[rel][key] = append(buckets[rel][key], i)
	}
}

// bandSweep is the band join: each relation's tuples sorted by key
// once, then for every tuple a binary search for the opposite
// relation's key range, keeping the earlier tuples inside the window.
func bandSweep(in Input, pred Pred, emit func(i, j int)) {
	var byKey [2][]int
	for i, rel := range in.Rel {
		byKey[rel] = append(byKey[rel], i)
	}
	for rel := range byKey {
		idx := byKey[rel]
		sort.Slice(idx, func(a, b int) bool {
			if in.Key[idx[a]] != in.Key[idx[b]] {
				return in.Key[idx[a]] < in.Key[idx[b]]
			}
			return idx[a] < idx[b]
		})
	}
	for i := range in.Rel {
		opp := byKey[1-in.Rel[i]]
		lo, hi := in.Key[i]-pred.Width, in.Key[i]+pred.Width
		from := sort.Search(len(opp), func(k int) bool { return in.Key[opp[k]] >= lo })
		for k := from; k < len(opp) && in.Key[opp[k]] <= hi; k++ {
			if j := opp[k]; j < i {
				emit(i, j)
			}
		}
	}
}

// Report is the verifier's verdict on one collected result multiset.
type Report struct {
	Expected   int // pairs the reference join contains
	Got        int // pairs collected
	Missing    int // expected pairs never emitted
	Duplicated int // extra copies of an expected pair
	Spurious   int // emitted pairs the reference join does not contain
}

// Failed is the number of pair-level failures.
func (r Report) Failed() int { return r.Missing + r.Duplicated + r.Spurious }

// Verify sorts the collected pair keys in place and walks them against
// the expectation.
func Verify(exp, got []uint64) Report {
	slices.Sort(got)
	rep := Report{Expected: len(exp), Got: len(got)}
	e := 0
	for g := 0; g < len(got); {
		k := got[g]
		n := 1
		for g+n < len(got) && got[g+n] == k {
			n++
		}
		g += n
		for e < len(exp) && exp[e] < k {
			rep.Missing++
			e++
		}
		if e < len(exp) && exp[e] == k {
			e++
			rep.Duplicated += n - 1
		} else {
			rep.Spurious += n
		}
	}
	rep.Missing += len(exp) - e
	return rep
}
