package index

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// hashModel is the reference Hash: a Go map of per-key slices beside an
// insertion-order list, the layout Hash had before its table.
type hashModel struct {
	byKey map[uint64][]*tuple.Tuple
	all   []*tuple.Tuple
}

type hashOpKind uint8

const (
	hashInsert hashOpKind = iota
	hashProbe
	hashProbeAll
	hashExport
)

// hashOp is one step of a differential stream. stop > 0 makes the
// emit callback decline the stop-th candidate.
type hashOp struct {
	kind hashOpKind
	key  int64
	stop int
}

// drain runs a scan with the op's early stop and returns what it
// emitted and what it returned.
func drain(stop int, scan func(func(*tuple.Tuple) bool) bool) ([]*tuple.Tuple, bool) {
	var out []*tuple.Tuple
	done := scan(func(t *tuple.Tuple) bool {
		out = append(out, t)
		return stop <= 0 || len(out) < stop
	})
	return out, done
}

// modelScan is what a scan over want emits and returns under the same
// early stop.
func modelScan(stop int, want []*tuple.Tuple) ([]*tuple.Tuple, bool) {
	if stop > 0 && stop <= len(want) {
		return want[:stop], false
	}
	return want, true
}

func sameSeq(a, b []*tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkHashAgainstModel drives ops through a Hash and the model and
// fails on the first emission order, return value or Len that differs.
// It returns the Hash for checks on its final shape.
func checkHashAgainstModel(t *testing.T, ops []hashOp) *Hash {
	t.Helper()
	h := NewHash(0)
	m := hashModel{byKey: map[uint64][]*tuple.Tuple{}}
	for i, o := range ops {
		var got, want []*tuple.Tuple
		var gotDone, wantDone bool
		switch o.kind {
		case hashInsert:
			tp := tuple.New(tuple.R, uint64(i+1), int64(i), tuple.Int(o.key))
			h.Insert(tp)
			k := tp.Value(0).Hash()
			m.byKey[k] = append(m.byKey[k], tp)
			m.all = append(m.all, tp)
		case hashProbe:
			plan := predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(o.key)}
			got, gotDone = drain(o.stop, func(emit func(*tuple.Tuple) bool) bool { return h.Probe(plan, emit) })
			want, wantDone = modelScan(o.stop, m.byKey[plan.Key.Hash()])
		case hashProbeAll:
			plan := predicate.Plan{Kind: predicate.ProbeAll}
			got, gotDone = drain(o.stop, func(emit func(*tuple.Tuple) bool) bool { return h.Probe(plan, emit) })
			want, wantDone = modelScan(o.stop, m.all)
		case hashExport:
			got, _ = drain(o.stop, func(emit func(*tuple.Tuple) bool) bool { h.Export(emit); return true })
			want, _ = modelScan(o.stop, m.all)
		}
		if !sameSeq(got, want) || gotDone != wantDone {
			t.Fatalf("op %d (%+v): emitted %d tuples returning %v, model %d returning %v",
				i, o, len(got), gotDone, len(want), wantDone)
		}
		if h.Len() != len(m.all) {
			t.Fatalf("op %d: Len = %d, model %d", i, h.Len(), len(m.all))
		}
	}
	if h.keys != len(m.byKey) {
		t.Fatalf("table holds %d keys, model %d", h.keys, len(m.byKey))
	}
	return h
}

// TestHashMatchesModel is the differential test: random insert, probe
// (with and without early stops) and export streams over key universes
// from one key to 100 000, the larger ones crossing several growth
// boundaries.
func TestHashMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, universe := range []int64{1, 2, 7, 1000, 100_000} {
		n := 4000
		if universe == 100_000 {
			n = 40_000
		}
		ops := make([]hashOp, n)
		for i := range ops {
			o := hashOp{key: rng.Int63n(universe)}
			switch r := rng.Intn(100); {
			case r < 55:
				o.kind = hashInsert
			case r < 95:
				o.kind = hashProbe
			case r < 98:
				o.kind = hashProbeAll
			default:
				o.kind = hashExport
			}
			if rng.Intn(3) == 0 {
				o.stop = 1 + rng.Intn(4)
			}
			ops[i] = o
		}
		h := checkHashAgainstModel(t, ops)
		if universe >= 1000 {
			if grown := bits.TrailingZeros(uint(len(h.tags) / minHashSlots)); grown < 3 {
				t.Fatalf("universe %d: the table grew %d times, want at least 3", universe, grown)
			}
		}
	}
}

// TestHashCollidingKeys: distinct keys whose hashes share both a home
// slot and a tag each probe to their own tuples only, and a fourth such
// key that was never inserted probes to nothing.
func TestHashCollidingKeys(t *testing.T) {
	shift := uint(64 - bits.TrailingZeros(minHashSlots))
	type spot struct {
		home uint64
		tag  uint8
	}
	groups := map[spot][]int64{}
	var keys []int64
	for k := int64(0); len(keys) == 0; k++ {
		m := mixHash(tuple.Int(k).Hash())
		s := spot{m >> shift, hashTag(m)}
		groups[s] = append(groups[s], k)
		if len(groups[s]) == 4 {
			keys = groups[s]
		}
	}
	h := NewHash(0)
	want := map[int64][]*tuple.Tuple{}
	for i := 0; i < 4; i++ {
		for _, k := range keys[:3] {
			tp := tuple.New(tuple.R, uint64(h.Len()+1), 0, tuple.Int(k))
			h.Insert(tp)
			want[k] = append(want[k], tp)
		}
	}
	if len(h.tags) != minHashSlots {
		t.Fatalf("table has %d slots, want the first table's %d", len(h.tags), minHashSlots)
	}
	for _, k := range keys {
		got := collect(h, predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(k)})
		if !sameSeq(got, want[k]) {
			t.Errorf("key %d (colliding with %v): probe found %d tuples, want its own %d", k, keys, len(got), len(want[k]))
		}
	}
}

// decodeHashOps turns fuzz input into an op stream: each op is a kind
// byte and two key bytes, so streams can cross several growth
// boundaries.
func decodeHashOps(data []byte) []hashOp {
	var ops []hashOp
	for b := data; len(b) >= 3; b = b[3:] {
		o := hashOp{key: int64(b[1])<<8 | int64(b[2]), stop: int(b[0]>>4) % 4}
		switch b[0] % 8 {
		case 0, 1, 2, 3:
			o.kind = hashInsert
		case 4, 5:
			o.kind = hashProbe
		case 6:
			o.kind = hashProbeAll
		default:
			o.kind = hashExport
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzHash runs the differential check on fuzzer-chosen op streams.
func FuzzHash(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 4, 0, 1, 0x14, 0, 1, 6, 0, 0, 0x27, 0, 0})
	seed := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i%6), byte(i>>3), byte(i*37))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkHashAgainstModel(t, decodeHashOps(data))
	})
}

// TestHashInsertAllocations pins inserts at amortised growth: filling
// a fresh Hash allocates only when its arrays double, not per key, so
// 4 096 inserts over 1 000 keys cost at most 0.05 allocations each.
func TestHashInsertAllocations(t *testing.T) {
	const n = 4096
	tuples := make([]*tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.New(tuple.R, uint64(i+1), int64(i), tuple.Int(int64(i%1000)))
	}
	var h *Hash
	a := testing.AllocsPerRun(20, func() {
		h = NewHash(0)
		for _, tp := range tuples {
			h.Insert(tp)
		}
	})
	if per := a / n; per > 0.05 {
		t.Fatalf("%d inserts: %.0f allocations, %.3f per insert, want <= 0.05", n, a, per)
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
}

// BenchmarkChainedPointProbe is one point probe through a chain of
// equi_inproc's shape: about 16 hash sub-indexes of 1 250 tuples each,
// Int keys uniform over [0, 100 000), so almost every sub-index misses.
func BenchmarkChainedPointProbe(b *testing.B) {
	win := window.Sliding{Span: 200 * time.Millisecond}
	c, err := NewChained(func() SubIndex { return NewHash(0) }, win.SpanMillis()/16, win)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 20_000
	for i := 0; i < n; i++ {
		c.Insert(tuple.New(tuple.R, uint64(i+1), int64(i)*win.SpanMillis()/n, tuple.Int(rng.Int63n(100_000))))
	}
	pred := predicate.NewEqui(0, 0)
	plans := make([]predicate.Plan, 1024)
	for i := range plans {
		plans[i] = pred.Plan(tuple.New(tuple.S, uint64(i+1), 0, tuple.Int(rng.Int63n(100_000))))
	}
	hits := 0
	emit := func(*tuple.Tuple) bool { hits++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(plans[i%len(plans)], emit)
	}
}
