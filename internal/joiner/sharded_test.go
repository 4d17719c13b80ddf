package joiner

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// resultKey fingerprints a join result for multiset comparison.
func resultKey(jr tuple.JoinResult) string {
	return fmt.Sprintf("%d|%d", jr.Left.Seq, jr.Right.Seq)
}

// workload builds a mixed store/join envelope stream with punctuation
// interleaved every punctEvery tuples.
func workload(seed int64, n int, pred func(i int) tuple.Value) (envs []protocol.Envelope, srcs []protocol.Source) {
	rng := rand.New(rand.NewSource(seed))
	counter := uint64(0)
	seq := uint64(0)
	ts := int64(1000)
	for i := 0; i < n; i++ {
		counter++
		seq++
		ts += rng.Int63n(20)
		if rng.Intn(2) == 0 {
			envs = append(envs, storeEnv(counter, tuple.New(tuple.R, seq, ts, pred(i))))
			srcs = append(srcs, protocol.SourceStore)
		} else {
			envs = append(envs, joinEnv(counter, tuple.New(tuple.S, seq, ts, pred(i))))
			srcs = append(srcs, protocol.SourceJoin)
		}
		if i%16 == 15 {
			counter++
			for _, src := range []protocol.Source{protocol.SourceStore, protocol.SourceJoin} {
				envs = append(envs, protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: counter})
				srcs = append(srcs, src)
			}
		}
	}
	// Final punctuation flushes everything.
	counter++
	for _, src := range []protocol.Source{protocol.SourceStore, protocol.SourceJoin} {
		envs = append(envs, protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: counter})
		srcs = append(srcs, protocol.Source(src))
	}
	return envs, srcs
}

// runBatches drives the stream through HandleBatch, per source path in
// FIFO order, alternating chunks of up to size envelopes between the
// store and join paths. One-element chunks interleave the paths tightly;
// large ones let one path run far ahead, so a single punctuation
// releases batches well past parallelBatchMin and the shards fan out.
func runBatches(t *testing.T, c *Core, envs []protocol.Envelope, srcs []protocol.Source, size int) []string {
	t.Helper()
	var out []string
	collect := func(jr tuple.JoinResult) { out = append(out, resultKey(jr)) }
	paths := map[protocol.Source][]protocol.Envelope{}
	for i, e := range envs {
		paths[srcs[i]] = append(paths[srcs[i]], e)
	}
	for len(paths[protocol.SourceStore])+len(paths[protocol.SourceJoin]) > 0 {
		for _, src := range []protocol.Source{protocol.SourceStore, protocol.SourceJoin} {
			p := paths[src]
			n := min(size, len(p))
			if n > 0 {
				c.HandleBatch(p[:n], src, collect)
			}
			paths[src] = p[n:]
		}
	}
	sort.Strings(out)
	return out
}

// nestedLoop is the reference join for an R-side core's envelope
// stream: every S probe meets every R store stamped before it (counter
// order), and the pair is a result when the window contains it and the
// predicate matches.
func nestedLoop(pred predicate.Predicate, win window.Sliding, envs []protocol.Envelope) []string {
	var out []string
	for _, probe := range envs {
		if probe.Kind != protocol.KindTuple || probe.Stream != protocol.StreamJoin {
			continue
		}
		for _, store := range envs {
			if store.Kind != protocol.KindTuple || store.Stream != protocol.StreamStore || store.Counter >= probe.Counter {
				continue
			}
			r, s := store.Tuple, probe.Tuple
			if win.Contains(r.TS, s.TS) && pred.Match(r, s) {
				out = append(out, resultKey(tuple.NewJoinResult(r, s)))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestShardedMatchesSingleShard is the core equivalence property: one
// shard or four, one-element batches or large ones, the pipeline
// produces exactly the nested-loop reference's result multiset, for
// both partitionable (equi) and fan-out (band) predicates. The stream
// spans longer than the window, so expiry runs throughout.
func TestShardedMatchesSingleShard(t *testing.T) {
	preds := []struct {
		name string
		pred predicate.Predicate
		key  func(i int) tuple.Value
	}{
		{"equi", predicate.NewEqui(0, 0), func(i int) tuple.Value { return tuple.Int(int64(i % 7)) }},
		{"band", predicate.NewBand(0, 0, 2), func(i int) tuple.Value { return tuple.Float(float64(i % 40)) }},
	}
	for _, pc := range preds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pc.name, seed), func(t *testing.T) {
				envs, srcs := workload(seed, 1500, pc.key)
				want := nestedLoop(pc.pred, testWin(), envs)
				var stores, probes int64
				for _, e := range envs {
					if e.Kind == protocol.KindTuple && e.Stream == protocol.StreamStore {
						stores++
					} else if e.Kind == protocol.KindTuple {
						probes++
					}
				}
				for _, shards := range []int{1, 4} {
					for _, size := range []int{1, 512} {
						t.Run(fmt.Sprintf("shards%d/batch%d", shards, size), func(t *testing.T) {
							c, err := NewCore(Config{Rel: tuple.R, Pred: pc.pred, Window: testWin(), Shards: shards})
							if err != nil {
								t.Fatal(err)
							}
							c.AddRouter(1)
							got := runBatches(t, c, envs, srcs, size)
							if len(got) != len(want) {
								t.Fatalf("produced %d results, reference %d", len(got), len(want))
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("result %d differs: %s vs reference %s", i, got[i], want[i])
								}
							}
							st := c.Stats()
							if st.Stored != stores || st.Probed != probes || st.Results != int64(len(want)) {
								t.Fatalf("counters stored=%d probed=%d results=%d, want %d/%d/%d",
									st.Stored, st.Probed, st.Results, stores, probes, len(want))
							}
							if st.Expired == 0 {
								t.Fatal("nothing expired; the stream must outlast the window")
							}
						})
					}
				}
			})
		}
	}
}

// TestHandleBatchDedupsRedeliveries: feeding the same batch twice must
// not double-store or re-emit (the exactly-once filter works batched).
func TestHandleBatchDedupsRedeliveries(t *testing.T) {
	c, err := NewCore(Config{Rel: tuple.R, Pred: predicate.NewEqui(0, 0), Window: testWin(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRouter(1)
	envs, srcs := workload(9, 200, func(i int) tuple.Value { return tuple.Int(int64(i % 5)) })
	first := runBatches(t, c, envs, srcs, 512)
	if len(first) == 0 {
		t.Fatal("workload produced no results")
	}
	second := runBatches(t, c, envs, srcs, 512)
	if len(second) != 0 {
		t.Fatalf("redelivered batch re-emitted %d results", len(second))
	}
	if dd := c.Stats().Deduped; dd == 0 {
		t.Fatal("dedup counter did not move")
	}
}

// probeAfter feeds one S probe and the punctuation releasing it, and
// returns the left (stored R) seqs of the results, sorted.
func probeAfter(c *Core, counter uint64, probe *tuple.Tuple) []uint64 {
	var left []uint64
	collect := func(jr tuple.JoinResult) { left = append(left, jr.Left.Seq) }
	feed(c, joinEnv(counter, probe), protocol.SourceJoin, collect)
	punctAll(c, counter+1, collect)
	sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
	return left
}

// restoredCore builds an R-side core with the given shard count from a
// 3-shard core's snapshot of a 300-tuple workload.
func restoredCore(t *testing.T, shards int) (src, restored *Core) {
	t.Helper()
	src, err := NewCore(Config{Rel: tuple.R, Pred: predicate.NewEqui(0, 0), Window: testWin(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	src.AddRouter(1)
	envs, srcs := workload(13, 300, func(i int) tuple.Value { return tuple.Int(int64(i % 9)) })
	runBatches(t, src, envs, srcs, 512)
	restored, err = NewCore(Config{Rel: tuple.R, Pred: predicate.NewEqui(0, 0), Window: testWin(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(src.Snapshot()); err != nil {
		t.Fatalf("restore into %d shards: %v", shards, err)
	}
	if restored.idx.Len() != src.idx.Len() {
		t.Fatalf("restored window len=%d, want %d", restored.idx.Len(), src.idx.Len())
	}
	return src, restored
}

// TestShardedSnapshotRestoreRoundTrip: a sharded core's snapshot
// restores into cores with the same and with a different shard count,
// and a probe through HandleBatch on either joins against the full
// restored window.
func TestShardedSnapshotRestoreRoundTrip(t *testing.T) {
	for _, shards := range []int{3, 5} {
		src, restored := restoredCore(t, shards)
		probe := tuple.New(tuple.S, 100_000, 7000, tuple.Int(3))
		want := probeAfter(src, 1_000_000, probe)
		if len(want) == 0 {
			t.Fatal("reference probe found nothing; the workload must store key 3")
		}
		got := probeAfter(restored, 1_000_000, probe)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("restored core with %d shards matched %v, want %v", shards, got, want)
		}
	}
}

// TestResizedRestoreSnapshotsLaterStores: after a 3→5-shard restore, a
// tuple stored through HandleBatch lands in the live window, so the
// next checkpoint snapshot carries it.
func TestResizedRestoreSnapshotsLaterStores(t *testing.T) {
	_, restored := restoredCore(t, 5)
	before := restored.idx.Len()
	late := tuple.New(tuple.R, 200_000, 7000, tuple.Int(4))
	collect := func(tuple.JoinResult) {}
	feed(restored, storeEnv(1_000_000, late), protocol.SourceStore, collect)
	punctAll(restored, 1_000_001, collect)
	n, found := 0, false
	for _, seg := range restored.Snapshot().Segments {
		for _, tp := range seg.Tuples {
			n++
			found = found || tp.Seq == late.Seq
		}
	}
	if !found || n != before+1 {
		t.Fatalf("snapshot after a post-restore store holds %d tuples (late tuple present: %v), want %d",
			n, found, before+1)
	}
}
