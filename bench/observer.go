package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"bistream"
	"bistream/bench/ledger"
	"bistream/internal/broker"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

// observer watches one engine run from outside for the per-layer
// counters: it times every Ingest call, samples queue depths, reorder
// buffers, the heap and follower lag ten times a second, and reads the
// public counters when the run ends. It is attached on traced runs
// only — end-to-end metrics are measured without it.
type observer struct {
	h *harness

	// Ingest call durations of the saturation phase, nanoseconds.
	recording bool
	ingestNS  []int64

	stop chan struct{}
	done sync.WaitGroup

	mu          sync.Mutex // guards the sampled maxima
	entryMax    int
	memberMax   int
	resultMax   int
	pendingMax  int
	lagMax      uint64
	heapPeak    uint64
	pauseBefore uint64

	metrics map[string]Metric
}

const sampleEvery = 100 * time.Millisecond

// attach starts sampling the harness.
func (o *observer) attach(h *harness) {
	o.h = h
	o.recording = true
	o.stop = make(chan struct{})
	o.metrics = map[string]Metric{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.pauseBefore = ms.PauseTotalNs
	o.done.Add(1)
	go func() {
		defer o.done.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-tick.C:
				o.sample()
			}
		}
	}()
}

// detach stops the sampler and waits for it.
func (o *observer) detach() {
	close(o.stop)
	o.done.Wait()
}

// queueStats reads one queue's counters from whichever broker serves
// the run: the in-process one, or the replica group's current leader.
// A queue that cannot be read (no leader this instant) counts as empty.
func (o *observer) queueStats(name string) broker.QueueStats {
	b := o.h.brk
	if o.h.group != nil {
		for _, n := range o.h.group.nodes {
			if n.IsLeader() {
				b = n.Broker()
			}
		}
	}
	if b == nil {
		return broker.QueueStats{}
	}
	st, _ := b.QueueStats(name) // zero stats on error
	return st
}

// memberQueues lists every joiner member's store and join queue.
func (o *observer) memberQueues() []string {
	var names []string
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		for _, id := range o.h.eng.MemberIDs(rel) {
			names = append(names, topo.StoreQueue(rel, id), topo.JoinQueue(rel, id))
		}
	}
	return names
}

func (o *observer) sample() {
	backlog := func(name string) int {
		st := o.queueStats(name)
		return st.Ready + st.Unacked
	}
	entry, result, member := backlog(topo.EntryQueue), backlog(ledger.SinkQueue), 0
	for _, q := range o.memberQueues() {
		member = max(member, backlog(q))
	}
	pending := 0
	snap := o.h.eng.Snapshot()
	for _, views := range [][]bistream.MemberView{snap.RJoiners, snap.SJoiners} {
		for _, m := range views {
			pending = max(pending, m.Pending)
		}
	}
	var lag uint64
	if g := o.h.group; g != nil {
		var lead, low uint64
		for _, n := range g.nodes {
			lsn := n.LastLSN()
			if n.IsLeader() {
				lead = lsn
			} else if low == 0 || lsn < low {
				low = lsn
			}
		}
		if lead > low {
			lag = lead - low
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mu.Lock()
	o.entryMax = max(o.entryMax, entry)
	o.memberMax = max(o.memberMax, member)
	o.resultMax = max(o.resultMax, result)
	o.pendingMax = max(o.pendingMax, pending)
	o.lagMax = max(o.lagMax, lag)
	o.heapPeak = max(o.heapPeak, ms.HeapInuse)
	o.mu.Unlock()
}

// timedIngest is Engine.Ingest with a stopwatch around it.
func (o *observer) timedIngest(t *bistream.Tuple) error {
	if !o.recording {
		return o.h.eng.Ingest(t)
	}
	t0 := time.Now()
	err := o.h.eng.Ingest(t)
	o.ingestNS = append(o.ingestNS, int64(time.Since(t0)))
	return err
}

// saturationDone closes the Ingest recording and turns it into the
// core.* metrics. ingestWall is how long the generator spent in the
// ingest loop, results what the sink received meanwhile.
func (o *observer) saturationDone(wall, ingestWall time.Duration, results int64) {
	o.recording = false
	calls := slices.Clone(o.ingestNS)
	slices.Sort(calls)
	p50 := quantile(calls, 0.50)
	var inCalls int64
	for _, d := range calls {
		inCalls += d
	}
	// Time inside Ingest beyond what an unblocked call costs is time
	// the generator was held back by entry-queue backpressure.
	blocked := float64(inCalls-p50*int64(len(calls))) / float64(ingestWall)
	o.metrics["core.ingest_call_ns_p50"] = metric(float64(p50), "ns")
	o.metrics["core.ingest_call_ns_p99"] = metric(float64(quantile(calls, 0.99)), "ns")
	o.metrics["core.ingest_blocked_share"] = metric(max(blocked, 0), "ratio")
	o.metrics["core.results_per_s"] = metric(float64(results)/wall.Seconds(), "1/s")
}

// finish reads the public counters at the end of the run (the engine
// must still be up) and completes the metric set. tuples is how many
// the run ingested.
func (o *observer) finish(tuples int) {
	o.sample()
	per := func(n int64) float64 { return float64(n) / float64(tuples) }
	snap := o.h.eng.Snapshot()

	var published int64
	for _, q := range append(o.memberQueues(), topo.EntryQueue, ledger.SinkQueue) {
		published += o.queueStats(q).Published
	}
	o.metrics["broker.msgs_per_tuple"] = metric(per(published), "count")

	var routed, fanout, msgsOut int64
	for _, r := range snap.Routers {
		routed += r.TuplesRouted
		fanout += r.JoinFanout
		msgsOut += r.MsgsOut
	}
	o.metrics["router.copies_per_tuple"] = metric(float64(routed+fanout)/float64(max(routed, 1)), "count")
	o.metrics["router.msgs_out_per_tuple"] = metric(float64(msgsOut)/float64(max(routed, 1)), "count")
	o.metrics["router.hot_keys"] = metric(float64(len(o.h.eng.HotKeys())), "count")

	var results, comparisons, deduped, subIndexes int64
	var waitSum, waitN float64
	var load []float64
	for _, views := range [][]bistream.MemberView{snap.RJoiners, snap.SJoiners} {
		for _, m := range views {
			results += m.Results
			comparisons += m.Comparisons
			deduped += m.Deduped
			subIndexes += int64(m.SubIndexes)
			load = append(load, float64(m.Stored+m.Probed))
			waitSum += float64(m.Latency.P50) * float64(m.Latency.Count)
			waitN += float64(m.Latency.Count)
		}
	}
	var loadSum float64
	for _, l := range load {
		loadSum += l
	}
	o.metrics["joiner.results_per_tuple"] = metric(per(results), "count")
	o.metrics["joiner.probe_hit_ratio"] = metric(float64(results)/float64(max(comparisons, 1)), "ratio")
	o.metrics["joiner.load_imbalance"] = metric(slices.Max(load)/(loadSum/float64(len(load))), "ratio")
	o.metrics["joiner.deduped"] = metric(float64(deduped), "count")
	o.metrics["protocol.reorder_wait_ms_p50"] = metric(waitSum/max(waitN, 1)/1e6, "ms")
	o.metrics["index.sub_indexes"] = metric(float64(subIndexes), "count")
	o.metrics["index.window_bytes_per_tuple"] = metric(float64(snap.WindowBytes)/float64(max(snap.WindowTuples, 1)), "bytes")

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.metrics["broker.entry_backlog_max"] = metric(float64(o.entryMax), "count")
	o.metrics["broker.join_backlog_max"] = metric(float64(o.memberMax), "count")
	o.metrics["broker.result_backlog_max"] = metric(float64(o.resultMax), "count")
	o.metrics["protocol.reorder_max_depth"] = metric(float64(o.pendingMax), "count")
	o.metrics["runtime.heap_inuse_peak_mb"] = metric(float64(o.heapPeak)/(1<<20), "MB")
	o.metrics["runtime.gc_pause_total_ms"] = metric(float64(ms.PauseTotalNs-o.pauseBefore)/1e6, "ms")
	if o.h.group != nil {
		o.metrics["replica.follower_lag_lsn_max"] = metric(float64(o.lagMax), "count")
	}
}
