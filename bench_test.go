// Benchmark harness: one benchmark per experiment of the reproduced
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md
// for paper-vs-measured notes). The Figure 20/21 benches replay the
// full 60-virtual-minute runs — expect tens of seconds per iteration;
// Go's default -benchtime runs them once.
package bistream_test

import (
	"encoding/binary"
	"testing"
	"time"

	"bistream"
	"bistream/internal/checkpoint"
	"bistream/internal/experiments"
	"bistream/internal/joiner"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
	"bistream/internal/window"
	"bistream/internal/workload"
)

// BenchmarkFig20CPUAutoscale reproduces E1 (Figure 20): dynamic scaling
// of the joiner deployments on CPU utilization under the
// 300→400→200→300 tuples/s schedule. Shape assertion: replica path
// 1→2→3→2.
func BenchmarkFig20CPUAutoscale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig20()
		if err != nil {
			b.Fatal(err)
		}
		assertPath(b, res.ReplicaPath, []int{1, 2, 3, 2})
		b.ReportMetric(float64(res.MaxReplicas), "peak-replicas")
		b.ReportMetric(float64(res.TuplesIn), "tuples")
	}
}

// BenchmarkFig21MemoryAutoscale reproduces E2 (Figure 21): dynamic
// scaling on memory load (mapped JVM heap vs a 520 MB target). Shape
// assertion: replica path 1→2→1 with window-bounded memory.
func BenchmarkFig21MemoryAutoscale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig21()
		if err != nil {
			b.Fatal(err)
		}
		assertPath(b, res.ReplicaPath, []int{1, 2, 1})
		if res.PeakMemMB < 520 {
			b.Fatalf("peak memory %.0fMB never crossed the 520MB target", res.PeakMemMB)
		}
		b.ReportMetric(res.PeakMemMB, "peak-MB")
		b.ReportMetric(res.FinalMemMB, "final-MB")
	}
}

// BenchmarkModelComparison reproduces E3 (§2.4.1): join-biclique vs
// join-matrix communication (p/2+1 vs √p copies per tuple) and storage
// (1× vs √p× replication) for p ∈ {4,16,36,64}.
func BenchmarkModelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunModelComparison(experiments.DefaultModelComparisonConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		if last.BicliqueCopies <= last.MatrixCopies {
			b.Fatal("biclique should pay more communication than matrix under random routing")
		}
		if last.MatrixMemBytes <= last.BicliqueMemBytes {
			b.Fatal("matrix should pay more memory than biclique")
		}
		b.ReportMetric(last.BicliqueCopies, "bic-copies/tuple")
		b.ReportMetric(last.MatrixCopies, "mat-copies/tuple")
	}
}

// BenchmarkOrderingProtocol reproduces E4 (Figure 8): the ordering
// protocol yields exactly-once results where unordered processing
// misses and duplicates.
func BenchmarkOrderingProtocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, without, err := experiments.RunOrdering(experiments.DefaultOrderingConfig())
		if err != nil {
			b.Fatal(err)
		}
		if with.Missed != 0 || with.Duplicated != 0 {
			b.Fatalf("protocol violated exactly-once: %+v", with)
		}
		b.ReportMetric(float64(without.Missed), "unordered-missed")
		b.ReportMetric(float64(without.Duplicated), "unordered-duplicated")
	}
}

// BenchmarkChainedIndexSweep reproduces E5 (Figure 5): archive-period
// sweep of the chained in-memory index against the monolithic
// tuple-at-a-time baseline.
func BenchmarkChainedIndexSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunChainSweep(experiments.DefaultChainConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].NsPerOp, "chained-ns/op")
		b.ReportMetric(rows[len(rows)-1].NsPerOp, "flat-ns/op")
	}
}

// BenchmarkRoutingStrategies reproduces E6 (§3.2): random vs subgroup
// vs hash routing under uniform and zipf-skewed keys.
func BenchmarkRoutingStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRoutingStrategies(experiments.DefaultRoutingConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Strategy == "hash" && r.Distribution == "zipf" {
				b.ReportMetric(r.Imbalance, "hash-zipf-imbalance")
			}
			if r.Strategy == "random" && r.Distribution == "zipf" {
				b.ReportMetric(r.Imbalance, "random-zipf-imbalance")
			}
		}
	}
}

// BenchmarkThroughputScaleOut reproduces E8: end-to-end engine
// throughput as the joiner groups grow, for hash-routed equi-joins and
// broadcast-routed band joins.
func BenchmarkThroughputScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunScaleOut(experiments.DefaultScaleOutConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Joiners == 8 {
				name := "equi-8j-tuples/s"
				if r.Predicate != "equi (hash)" {
					name = "band-8j-tuples/s"
				}
				b.ReportMetric(r.TuplesPer, name)
			}
		}
	}
}

// BenchmarkHeapPolicyAblation reproduces E9 (§5.2): the JVM footprint
// flags ablation on a compressed Figure 21 workload (the full-length
// version is `bistream exp heap`).
func BenchmarkHeapPolicyAblation(b *testing.B) {
	cfg := experiments.Fig21Config()
	cfg.Duration = 20 * time.Minute
	cfg.WindowSpan = 5 * time.Minute
	cfg.Profile = workload.RateProfile{
		{From: 0, TuplesPerSec: 300},
		{From: 7 * time.Minute, TuplesPerSec: 500},
		{From: 14 * time.Minute, TuplesPerSec: 100},
	}
	cfg.PayloadBytes = 7200
	cfg.StabilizationWindow = 2 * time.Minute
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunHeapAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuned, def := rows[0], rows[1]
		if !tuned.MemRecovered || def.MemRecovered {
			b.Fatalf("ablation shape wrong: tuned=%+v default=%+v", tuned, def)
		}
		b.ReportMetric(tuned.FinalMemMB, "tuned-final-MB")
		b.ReportMetric(def.FinalMemMB, "default-final-MB")
	}
}

// BenchmarkJoinerCoreEquiSharded measures the joiner's batched,
// core-sharded steady-state path from encoded envelope to join result:
// slab-decoder decode, release through the ordering protocol, and
// store/probe fanned out across GOMAXPROCS shards — the per-process hot
// path the service's consume loop runs between broker hops. ns/op is
// per tuple aggregate across shards, so <1000ns sustains >1M tuples/s
// per joiner process.
func BenchmarkJoinerCoreEquiSharded(b *testing.B) {
	core, err := joiner.NewCore(joiner.Config{
		Rel:  tuple.R,
		Pred: predicate.NewEqui(0, 0),
		// Hot-path tuning per docs/OPERATIONS.md: a coarser archive
		// period shortens the sub-index chain a point probe walks
		// (window/4 ≈ 5 sub-indexes instead of the default 17).
		Window:        window.Sliding{Span: 10 * time.Second},
		ArchivePeriod: 2500 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	core.AddRouter(1)

	// Envelope bodies are marshaled once; the timed loop patches the
	// counter/seq/ts/key fields in place, keeping encode cost out of the
	// measurement while decode cost stays in, like the consume loop.
	const half = 256 // store and join halves of one 512-tuple cycle
	storeBodies := make([][]byte, half)
	joinBodies := make([][]byte, half)
	for i := range storeBodies {
		storeBodies[i] = protocol.Envelope{
			Kind: protocol.KindTuple, RouterID: 1, Stream: protocol.StreamStore,
			Tuple: tuple.New(tuple.R, 1, 0, tuple.Int(0)),
		}.Marshal()
		joinBodies[i] = protocol.Envelope{
			Kind: protocol.KindTuple, RouterID: 1, Stream: protocol.StreamJoin,
			Tuple: tuple.New(tuple.S, 1, 0, tuple.Int(0)),
		}.Marshal()
	}
	// Fixed offsets into a marshaled single-int-value tuple envelope:
	// kind(1) router(4) counter(8) | stream(1) | rel(1) seq(8) ts(8)
	// count(1) valkind(1) int64 key.
	patch := func(body []byte, counter, seq uint64, ts, key int64) {
		binary.LittleEndian.PutUint64(body[5:13], counter)
		binary.LittleEndian.PutUint64(body[15:23], seq)
		binary.LittleEndian.PutUint64(body[23:31], uint64(ts))
		binary.LittleEndian.PutUint64(body[33:41], uint64(key))
	}
	var (
		dec     tuple.Decoder
		envs    = make([]protocol.Envelope, 0, half+1)
		counter uint64
		seq     uint64
		keyBase int64
		results int
	)
	emit := func(tuple.JoinResult) { results++ }
	decode := func(body []byte) protocol.Envelope {
		e, err := protocol.DecodeEnvelope(body, &dec)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += 2 * half {
		// Store half first, join half second, then one punctuation
		// counter sent on both sources: the join-source batch's signal
		// completes the (router, source) frontier pair and releases the
		// whole 512-tuple cycle through the parallel shard fan-out.
		envs = envs[:0]
		for i := 0; i < half; i++ {
			counter++
			seq++
			patch(storeBodies[i], counter, seq, int64(seq)/5, (keyBase+int64(i))%65_536)
			envs = append(envs, decode(storeBodies[i]))
		}
		punct := protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: 1, Counter: counter + uint64(half) + 1}
		envs = append(envs, punct)
		core.HandleBatch(envs, protocol.SourceStore, emit)

		envs = envs[:0]
		for i := 0; i < half; i++ {
			counter++
			seq++
			patch(joinBodies[i], counter, seq, int64(seq)/5, (keyBase+int64(i))%65_536)
			envs = append(envs, decode(joinBodies[i]))
		}
		counter++
		envs = append(envs, punct)
		core.HandleBatch(envs, protocol.SourceJoin, emit)
		keyBase += half
	}
	b.StopTimer()
	st := core.Stats()
	if st.Stored == 0 || st.Probed == 0 || results == 0 {
		b.Fatalf("pipeline idle: stored=%d probed=%d results=%d", st.Stored, st.Probed, results)
	}
	b.ReportMetric(float64(core.NumShards()), "shards")
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkEngineIngestEqui measures raw end-to-end engine throughput
// (hash routing, 2+2 joiners) per ingested tuple.
func BenchmarkEngineIngestEqui(b *testing.B) {
	benchEngineIngest(b, bistream.Equi(0, 0))
}

// BenchmarkEngineIngestBand measures the broadcast-routing (band join)
// engine throughput per ingested tuple.
func BenchmarkEngineIngestBand(b *testing.B) {
	benchEngineIngest(b, bistream.Band(0, 0, 0.5))
}

func benchEngineIngest(b *testing.B, pred bistream.Predicate) {
	benchEngineIngestTraced(b, pred, -1) // tracing off: the baseline
}

// BenchmarkEngineIngestEquiTraced is BenchmarkEngineIngestEqui with the
// default 1-in-64 stage tracing enabled. Compare its ns/op against the
// untraced benchmark to measure the sampling overhead; the issue budget
// is <5%:
//
//	go test -bench 'EngineIngestEqui(Traced)?$' -benchtime 3s
func BenchmarkEngineIngestEquiTraced(b *testing.B) {
	benchEngineIngestTraced(b, bistream.Equi(0, 0), 0) // 0 = default sample rate
}

// BenchmarkEngineIngestEquiCheckpointed is BenchmarkEngineIngestEqui
// with file-backed window checkpointing at the default 250ms interval:
// every member snapshots its window to disk on the ticker and withholds
// broker acks until the covering checkpoint commits. Compare against
// the plain benchmark for the durability overhead (see EXPERIMENTS.md).
func BenchmarkEngineIngestEquiCheckpointed(b *testing.B) {
	eng, err := bistream.New(bistream.Config{
		Predicate:           bistream.Equi(0, 0),
		Window:              time.Minute,
		Routers:             2,
		RJoiners:            2,
		SJoiners:            2,
		PunctuationInterval: 5 * time.Millisecond,
		OnResult:            func(bistream.JoinResult) {},
		TraceSample:         -1,
		Checkpoint:          checkpoint.FileProvider{Dir: b.TempDir()},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	ingestAlternating(b, eng)
}

func benchEngineIngestTraced(b *testing.B, pred bistream.Predicate, traceSample int) {
	eng, err := bistream.New(bistream.Config{
		Predicate:           pred,
		Window:              time.Minute,
		Routers:             2,
		RJoiners:            2,
		SJoiners:            2,
		PunctuationInterval: 5 * time.Millisecond,
		OnResult:            func(bistream.JoinResult) {},
		TraceSample:         traceSample,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	ingestAlternating(b, eng)
}

// ingestAlternating is the timed body of the engine ingest benchmarks:
// R and S tuples alternate, each R and the S behind it drawn from one
// key space (100 000 keys, revisited well after the window has moved
// on) so the pair joins — about half a result per tuple — and the run
// ends quiescent.
func ingestAlternating(b *testing.B, eng *bistream.Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := tuple.R
		if i%2 == 1 {
			rel = tuple.S
		}
		if err := eng.Ingest(bistream.NewTuple(rel, uint64(i+1), int64(i), bistream.Int(int64(i/2%100_000)))); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Quiesce(2 * time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Snapshot().Results)/float64(b.N), "results/op")
}

// assertPath checks the replica path matches the published shape,
// tolerating repeated adjacent values.
func assertPath(b *testing.B, got, want []int) {
	b.Helper()
	compact := make([]int, 0, len(got))
	for _, v := range got {
		if len(compact) == 0 || compact[len(compact)-1] != v {
			compact = append(compact, v)
		}
	}
	if len(compact) != len(want) {
		b.Fatalf("replica path %v, want shape %v", got, want)
	}
	for i := range want {
		if compact[i] != want[i] {
			b.Fatalf("replica path %v, want shape %v", got, want)
		}
	}
}

// BenchmarkPunctuationSweep reproduces E10 (§3.3): the punctuation
// interval trades protocol latency (≈ one interval) against signal
// message overhead.
func BenchmarkPunctuationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunPunctuationSweep(experiments.DefaultPunctuationConfig())
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		if last.MeanLatency <= first.MeanLatency {
			b.Fatalf("latency did not grow with interval: %v vs %v", first.MeanLatency, last.MeanLatency)
		}
		b.ReportMetric(float64(first.MeanLatency.Microseconds()), "lat-1ms-us")
		b.ReportMetric(float64(last.MeanLatency.Microseconds()), "lat-100ms-us")
	}
}
