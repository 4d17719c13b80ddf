package index

import (
	"fmt"
	"math/rand"
	"testing"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

func newShardedEqui(t *testing.T, n int) *Sharded {
	t.Helper()
	win := window.Sliding{Span: 10_000 * 1_000_000} // 10s
	x, err := NewSharded(func() SubIndex { return NewHash(0) }, 500, win, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestShardedEveryKeyOnExactlyOneShard pins the partitioning invariant
// the lock-free hot path rests on: all tuples of one join key live in
// exactly one shard, and a point probe for that key visits that shard.
func TestShardedEveryKeyOnExactlyOneShard(t *testing.T) {
	x := newShardedEqui(t, 4)
	const keys, copies = 50, 8
	for k := 0; k < keys; k++ {
		for c := 0; c < copies; c++ {
			x.Insert(tuple.New(tuple.R, uint64(k*copies+c+1), int64(c), tuple.Int(int64(k))))
		}
	}
	if x.Len() != keys*copies {
		t.Fatalf("Len = %d, want %d", x.Len(), keys*copies)
	}
	for k := 0; k < keys; k++ {
		plan := predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(int64(k))}
		owner := x.ProbeShard(&plan)
		if owner < 0 {
			t.Fatalf("key %d: point probe did not resolve to one shard", k)
		}
		// The key's tuples are all in the owner shard and nowhere else.
		for i := 0; i < x.NumShards(); i++ {
			found := 0
			x.Shard(i).Probe(predicate.Plan{Kind: predicate.ProbeAll}, func(tp *tuple.Tuple) bool {
				if tp.Value(0).AsInt() == int64(k) {
					found++
				}
				return true
			})
			want := 0
			if i == owner {
				want = copies
			}
			if found != want {
				t.Fatalf("key %d: shard %d holds %d copies, want %d", k, i, found, want)
			}
		}
		if got := len(probeAll(x, plan)); got != copies {
			t.Fatalf("key %d: probe found %d, want %d", k, got, copies)
		}
	}
}

// TestShardedRestoreAcrossShardCountChange proves snapshot/restore
// re-establishes the exactly-one-shard invariant when the shard count
// changes between export and import (a restart with a different
// -shards or GOMAXPROCS).
func TestShardedRestoreAcrossShardCountChange(t *testing.T) {
	for _, counts := range [][2]int{{4, 2}, {2, 5}, {3, 1}, {1, 4}} {
		t.Run(fmt.Sprintf("%d-to-%d", counts[0], counts[1]), func(t *testing.T) {
			orig := newShardedEqui(t, counts[0])
			rng := rand.New(rand.NewSource(11))
			ts := int64(0)
			for i := 0; i < 300; i++ {
				ts += rng.Int63n(40)
				orig.Insert(tuple.New(tuple.R, uint64(i+1), ts, tuple.Int(rng.Int63n(25))))
			}
			restored := newShardedEqui(t, counts[1])
			if err := restored.ImportSegments(orig.ExportSegments()); err != nil {
				t.Fatal(err)
			}
			if restored.Len() != orig.Len() {
				t.Fatalf("restored len=%d, want %d", restored.Len(), orig.Len())
			}
			for k := int64(0); k < 25; k++ {
				plan := predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(k)}
				got, want := probeAll(restored, plan), probeAll(orig, plan)
				if len(got) != len(want) {
					t.Fatalf("key %d: restored probe found %d, want %d", k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("key %d: probe result %d differs", k, i)
					}
				}
				// The invariant itself: after the resize every key is
				// wholly inside its (new) owner shard.
				owner := restored.ProbeShard(&plan)
				for i := 0; i < restored.NumShards(); i++ {
					if i == owner {
						continue
					}
					restored.Shard(i).Probe(predicate.Plan{Kind: predicate.ProbeAll}, func(tp *tuple.Tuple) bool {
						if tp.Value(0).Equal(tuple.Int(k)) {
							t.Fatalf("key %d leaked into shard %d (owner %d)", k, i, owner)
						}
						return true
					})
				}
			}
			// Expiry may drop slightly different stale prefixes on the two
			// layouts (whole-sub-index discards depend on segment
			// boundaries, which a repartition rebuilds), but it must never
			// drop an in-window tuple on either.
			oppTS := ts + 5_000
			orig.Expire(oppTS)
			restored.Expire(oppTS)
			win := window.Sliding{Span: 10_000 * 1_000_000}
			for _, x := range []*Sharded{orig, restored} {
				live := map[string]bool{}
				x.Probe(predicate.Plan{Kind: predicate.ProbeAll}, func(tp *tuple.Tuple) bool {
					live[string(tuple.Marshal(tp))] = true
					return true
				})
				rng := rand.New(rand.NewSource(11))
				rts := int64(0)
				for i := 0; i < 300; i++ {
					rts += rng.Int63n(40)
					tp := tuple.New(tuple.R, uint64(i+1), rts, tuple.Int(rng.Int63n(25)))
					if !win.Expired(tp.TS, oppTS) && !live[string(tuple.Marshal(tp))] {
						t.Fatalf("in-window tuple seq %d dropped by expiry", tp.Seq)
					}
				}
			}
		})
	}
}

// TestShardedResizedImportKeepsShardIdentity: a restore into a
// different shard count repartitions inside the existing shards, so a
// Shard pointer taken before the import still addresses the live
// window — a tuple inserted through it afterwards is visible to the
// index's probes, length and export.
func TestShardedResizedImportKeepsShardIdentity(t *testing.T) {
	orig := newShardedEqui(t, 3)
	for i := 0; i < 90; i++ {
		orig.Insert(tuple.New(tuple.R, uint64(i+1), int64(i*10), tuple.Int(int64(i%9))))
	}
	restored := newShardedEqui(t, 5)
	held := make([]*Chained, restored.NumShards())
	for i := range held {
		held[i] = restored.Shard(i)
	}
	if err := restored.ImportSegments(orig.ExportSegments()); err != nil {
		t.Fatal(err)
	}
	for i, c := range held {
		if restored.Shard(i) != c {
			t.Fatalf("shard %d replaced by a resized import", i)
		}
	}
	late := tuple.New(tuple.R, 1000, 900, tuple.Int(4))
	held[restored.ShardFor(late)].Insert(late)
	if restored.Len() != orig.Len()+1 {
		t.Fatalf("Len = %d after a post-restore insert, want %d", restored.Len(), orig.Len()+1)
	}
	found := 0
	for _, s := range restored.ExportSegments() {
		for _, tp := range s.Tuples {
			if tp == late {
				found++
			}
		}
	}
	if found != 1 {
		t.Fatalf("post-restore tuple exported %d times, want 1", found)
	}
	plan := predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(4)}
	if got, want := len(probeAll(restored, plan)), len(probeAll(orig, plan))+1; got != want {
		t.Fatalf("probe found %d, want %d", got, want)
	}
}

// TestShardedSameCountRestorePreservesLayout: with an unchanged shard
// count the import is positional, preserving segment identities so
// checkpoint increments stay valid.
func TestShardedSameCountRestorePreservesLayout(t *testing.T) {
	orig := newShardedEqui(t, 3)
	rng := rand.New(rand.NewSource(5))
	ts := int64(0)
	for i := 0; i < 400; i++ {
		ts += rng.Int63n(30)
		orig.Insert(tuple.New(tuple.R, uint64(i+1), ts, tuple.Int(rng.Int63n(40))))
	}
	segs := orig.ExportSegments()
	restored := newShardedEqui(t, 3)
	if err := restored.ImportSegments(segs); err != nil {
		t.Fatal(err)
	}
	segs2 := restored.ExportSegments()
	if len(segs2) != len(segs) {
		t.Fatalf("re-export produced %d segments, want %d", len(segs2), len(segs))
	}
	for i := range segs {
		if segs2[i].ID != segs[i].ID || segs2[i].Sealed != segs[i].Sealed || len(segs2[i].Tuples) != len(segs[i].Tuples) {
			t.Fatalf("segment %d changed identity across restore: %+v vs %+v",
				i, segs2[i].ID, segs[i].ID)
		}
	}
	for i := 0; i < 3; i++ {
		if restored.Shard(i).Len() != orig.Shard(i).Len() {
			t.Fatalf("shard %d len=%d, want %d", i, restored.Shard(i).Len(), orig.Shard(i).Len())
		}
	}
}

// TestShardedGraftSplitsAndStaysIdempotent: a donor's sealed segments
// split across shards by tuple hash, retries add nothing, and every
// grafted tuple is probeable afterwards.
func TestShardedGraftSplitsAndStaysIdempotent(t *testing.T) {
	x := newShardedEqui(t, 4)
	var donor []Segment
	seq := uint64(1)
	for id := uint64(1); id <= 3; id++ {
		seg := Segment{ID: id, Origin: 7, Sealed: true}
		for i := 0; i < 40; i++ {
			tp := tuple.New(tuple.R, seq, int64(seq), tuple.Int(int64(seq%13)))
			seq++
			if len(seg.Tuples) == 0 {
				seg.MinTS, seg.MaxTS = tp.TS, tp.TS
			} else {
				seg.MaxTS = tp.TS
			}
			seg.Tuples = append(seg.Tuples, tp)
		}
		donor = append(donor, seg)
	}
	added, err := x.Graft(donor)
	if err != nil {
		t.Fatal(err)
	}
	if added != 120 {
		t.Fatalf("graft added %d, want 120", added)
	}
	if x.Len() != 120 {
		t.Fatalf("Len = %d after graft", x.Len())
	}
	// Retry: same donor segments, nothing new.
	added, err = x.Graft(donor)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("retried graft added %d, want 0", added)
	}
	for k := int64(0); k < 13; k++ {
		plan := predicate.Plan{Kind: predicate.ProbePoint, Key: tuple.Int(k)}
		got := probeAll(x, plan)
		want := 0
		for s := uint64(1); s <= 120; s++ {
			if int64(s%13) == k {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("key %d: found %d grafted tuples, want %d", k, len(got), want)
		}
	}
	// The graft survives an export/import round trip (same count).
	restored := newShardedEqui(t, 4)
	if err := restored.ImportSegments(x.ExportSegments()); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 120 {
		t.Fatalf("restored len=%d, want 120", restored.Len())
	}
	// And a graft retry on the restored index still adds nothing.
	added, err = restored.Graft(donor)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("post-restore graft retry added %d, want 0", added)
	}
}

// TestShardedRangeProbeMatchesSingleShard: a non-partitionable plan
// fans out across shards and must return the same multiset a one-shard
// index does.
func TestShardedRangeProbeMatchesSingleShard(t *testing.T) {
	win := window.Sliding{Span: 10_000 * 1_000_000}
	factory := func() SubIndex { return NewBTree(0) }
	multi, err := NewSharded(factory, 500, win, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewSharded(factory, 500, win, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ts := int64(0)
	for i := 0; i < 300; i++ {
		ts += rng.Int63n(30)
		tp := tuple.New(tuple.R, uint64(i+1), ts, tuple.Int(rng.Int63n(100)))
		multi.Insert(tp)
		single.Insert(tp)
	}
	for _, plan := range []predicate.Plan{
		{Kind: predicate.ProbeRange, Lo: tuple.Int(10), Hi: tuple.Int(30), LoInc: true, HiInc: true},
		{Kind: predicate.ProbeRange, Hi: tuple.Int(50), HiInc: false},
		{Kind: predicate.ProbeAll},
	} {
		got, want := probeAll(multi, plan), probeAll(single, plan)
		if len(got) != len(want) {
			t.Fatalf("plan %+v: sharded found %d, single found %d", plan.Kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("plan %+v: result %d differs", plan.Kind, i)
			}
		}
	}
}
