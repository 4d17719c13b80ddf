package main

import "bistream/bench/ledger"

// Metric is one reported measurement.
type Metric = ledger.Metric

// metricDef is one catalogue entry. BENCHMARK.json at the repository
// root carries the same names, units, directions and bounds; the smoke
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before compare calls it worse.
	Bound float64
	What  string
}

// endToEnd is what a user of the system sees, per workload.
var endToEnd = []metricDef{
	{"throughput_tuples_per_s", "tuples/s", "higher", 0.20, "saturation: tuples ÷ wall time until the engine is quiescent"},
	{"cpu_us_per_tuple", "us", "lower", 0.20, "saturation: process user+sys CPU (getrusage) ÷ tuples"},
	{"latency_p50_ms", "ms", "lower", 0.10, "paced: median result latency from the later parent's due time to OnResult"},
	{"latency_p99_ms", "ms", "lower", 0.15, "paced: 99th percentile of the same"},
	{"allocs_per_tuple", "count", "lower", 0.05, "saturation: runtime.MemStats.Mallocs delta ÷ tuples"},
	{"setup_s", "s", "lower", 0.25, "New+Start (+replica election and wire.Connect) + quiesced warm-up; median of the run's set-ups"},
}

// failedShare is reported by every run but is not in BENCHMARK.json: it
// must be zero, and the contract carries failures as attempted/failed
// instead of as a metric that can never have a spread.
var failedShare = metricDef{"failed_share", "ratio", "lower", 0, "(ingest errors + missing + duplicated + spurious pairs) ÷ (tuples + expected pairs)"}

// perLayer is the outside-in ledger: one group per package a tuple
// crosses. "_ns" values are corrected self time per call from the
// ledger pipeline; counts come from the observed engine run's public
// counters.
var perLayer = []metricDef{
	{"core.ingest_call_ns_p50", "ns", "lower", 0, "Engine.Ingest call time, saturation phase"},
	{"core.ingest_call_ns_p99", "ns", "lower", 0, "same, 99th percentile (backpressure shows here)"},
	{"core.ingest_blocked_share", "ratio", "lower", 0, "share of the ingest loop spent in Ingest beyond an unblocked call's cost"},
	{"core.results_per_s", "1/s", "higher", 0, "results delivered to OnResult per second of the saturation phase"},

	{"tuple.marshal_ns", "ns", "lower", 0, "tuple.Marshal"},
	{"tuple.decode_ns", "ns", "lower", 0, "tuple.Unmarshal at the router"},
	{"tuple.bytes_per_tuple", "bytes", "lower", 0, "encoded size of an ingested tuple"},
	{"tuple.pair_marshal_ns", "ns", "lower", 0, "result pair encoding at the joiner"},
	{"tuple.pair_unmarshal_ns", "ns", "lower", 0, "tuple.UnmarshalPair at the sink"},

	{"protocol.envelope_marshal_ns", "ns", "lower", 0, "Envelope.Marshal per destination"},
	{"protocol.envelope_decode_ns", "ns", "lower", 0, "protocol.DecodeEnvelope with the slab decoder"},
	{"protocol.reorder_ns", "ns", "lower", 0, "Reorderer.AddInto, replayed alone"},
	{"protocol.reorder_wait_ms_p50", "ms", "lower", 0, "median time in the reorder buffer (joiner.Stats.Latency)"},
	{"protocol.reorder_max_depth", "count", "lower", 0, "largest sampled reorder-buffer depth of any member"},

	{"broker.publish_ns", "ns", "lower", 0, "Client.Publish, all exchanges pooled"},
	{"broker.consume_ack_ns", "ns", "lower", 0, "delivery wait + ack per message"},
	{"broker.msgs_per_tuple", "count", "lower", 0, "messages enqueued on all engine queues ÷ tuples"},
	{"broker.entry_backlog_max", "count", "lower", 0, "largest sampled entry-queue backlog (ready+unacked)"},
	{"broker.join_backlog_max", "count", "lower", 0, "largest sampled backlog of any member queue"},
	{"broker.result_backlog_max", "count", "lower", 0, "largest sampled result-queue backlog"},

	{"wire.publish_rtt_us", "us", "lower", 0, "Publish round trip to a solo wire.Server on loopback"},
	{"wire.frame_bytes_per_msg", "bytes", "lower", 0, "bytes on the socket, both ways, per published entry message"},
	{"replica.commit_rtt_us", "us", "lower", 0, "Publish round trip at quorum 2 minus the solo round trip"},
	{"replica.follower_lag_lsn_max", "count", "lower", 0, "largest sampled leader LSN − slowest follower LSN"},

	{"router.route_ns", "ns", "lower", 0, "router.Core.Route"},
	{"router.copies_per_tuple", "count", "lower", 0, "store + join copies per routed tuple (p/2+1 under broadcast)"},
	{"router.msgs_out_per_tuple", "count", "lower", 0, "envelopes published per routed tuple, punctuation included"},
	{"router.hot_keys", "count", "lower", 0, "keys the HotTracker holds promoted at the end of the run"},

	{"joiner.handle_batch_ns", "ns", "lower", 0, "Core.HandleBatch per envelope, inclusive"},
	{"joiner.self_ns", "ns", "lower", 0, "the same minus emits, reorderer and index"},
	{"joiner.results_per_tuple", "count", "higher", 0, "results emitted ÷ tuples (a workload constant)"},
	{"joiner.probe_hit_ratio", "ratio", "higher", 0, "results ÷ probe candidates examined"},
	{"joiner.load_imbalance", "ratio", "lower", 0, "max ÷ mean of stored+probed over members"},
	{"joiner.deduped", "count", "lower", 0, "redelivered tuples the idempotency filter suppressed"},

	{"index.insert_ns", "ns", "lower", 0, "index insert, replayed alone"},
	{"index.probe_ns", "ns", "lower", 0, "index probe incl. candidate visits, replayed alone"},
	{"index.expire_ns", "ns", "lower", 0, "index expiry check, replayed alone"},
	{"index.sub_indexes", "count", "lower", 0, "live sub-indexes over all members at the end of the run"},
	{"index.window_bytes_per_tuple", "bytes", "lower", 0, "Snapshot().WindowBytes ÷ WindowTuples — the paper's 1× storage"},

	{"dedup.seen_or_add_ns", "ns", "lower", 0, "dedup.Set.SeenOrAdd at the sink"},

	{"checkpoint.snapshot_ms", "ms", "lower", 0, "joiner.Core.Snapshot + segment encoding of the end-of-ledger window"},
	{"checkpoint.bytes_per_tuple", "bytes", "lower", 0, "encoded segment bytes ÷ window tuples"},

	{"gen.lag_p99_ms", "ms", "lower", 0, "how late the open-loop generator ran"},
	{"runtime.heap_inuse_peak_mb", "MB", "lower", 0, "largest sampled HeapInuse"},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0, "stop-the-world pause total over the observed run"},

	{"ledger.us_per_tuple", "us", "lower", 0, "Σ span self time ÷ tuples"},
	{"ledger.coverage", "ratio", "higher", 0, "ledger.us_per_tuple ÷ cpu_us_per_tuple of the observed run"},
	{"ledger.share_message_path", "ratio", "lower", 0, "share of ledger time in core+broker+tuple+protocol+router"},
	{"ledger.share_joiner_index", "ratio", "lower", 0, "share in joiner.handle_batch (joiner+index+reorder)"},
	{"ledger.share_result_path", "ratio", "lower", 0, "share in pair codec, result publish/consume, dedup"},
	{"ledger.share_wire_replica", "ratio", "lower", 0, "share in broker calls when they cross the wire"},
	{"ledger.clock_ns", "ns", "lower", 0, "cost of one recorded span, already subtracted"},
}

// notExecuted names the per-layer metrics a workload cannot produce
// because the layer does not run there. The human report and the result
// file omit them; the one-line driver output, which must carry every
// declared metric, reports them as 0.
func notExecuted(name string, wire bool) bool {
	switch name {
	case "wire.publish_rtt_us", "wire.frame_bytes_per_msg", "replica.commit_rtt_us", "replica.follower_lag_lsn_max":
		return !wire
	}
	return false
}

func metric(value float64, unit string) Metric { return Metric{Value: value, Unit: unit} }
