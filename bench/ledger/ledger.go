package ledger

import (
	"fmt"
	"sort"

	"bistream/internal/checkpoint"
	"bistream/internal/index"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
)

// Metric is one reported measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one ledger run measured.
type Result struct {
	Tuples int
	// Pairs are the result pairs the pipeline delivered, for the
	// oracle.
	Pairs []uint64
	// Spans is every recorded call, pipeline then replays.
	Spans []Span
	// Ops aggregates the spans per call site.
	Ops [numOps]OpStats
	// clockPairNS is the recorder's measured cost per span, which the
	// aggregates were corrected by.
	clockPairNS     float64
	bytesPerTuple   float64
	checkpointBytes int64
	checkpointSize  int // tuples in the snapshotted window
}

// Run executes the ledger pipeline (and, if asked, the replays).
func Run(cfg Config) (*Result, error) {
	if cfg.Tuples < 1 || cfg.Tuples > cfg.Stream.Len() {
		return nil, fmt.Errorf("ledger: %d tuples asked of a %d-tuple stream", cfg.Tuples, cfg.Stream.Len())
	}
	inner, pair := clockCost()
	rec := newRecorder(spanCapacity(cfg.Tuples, cfg.Pairs))
	p, err := newPipeline(cfg, rec)
	if err == nil {
		defer p.cancel()
		err = p.run()
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", cfg.Workload.Name, err)
	}
	res := &Result{
		Tuples: cfg.Tuples, Pairs: p.pairs,
		clockPairNS:   pair,
		bytesPerTuple: float64(p.bytesIn) / float64(cfg.Tuples),
	}
	if cfg.Replays {
		for _, ms := range p.members {
			for _, m := range ms {
				if err := p.replay(m); err != nil {
					return nil, err
				}
			}
		}
		p.checkpoint(p.members[tuple.R][0], res)
	}
	res.Spans = rec.spans
	res.Ops = aggregate(rec.spans, inner, pair)
	return res, nil
}

// spanCapacity bounds the spans a run records. A tuple with c routed
// copies takes 7+3c spans through the pipeline and 3c-1 in the replays,
// 24 under broadcast to 2+2 members (c = 3, the most any workload
// routes); batch and punctuation spans are a few per thousand tuples. A
// result takes 6 from pair marshal to sink ack.
func spanCapacity(tuples, pairs int) int { return tuples*26 + pairs*6 + 1024 }

// replay drives the reorderer and the index alone with what member m
// received, so joiner.handle_batch can be split into protocol, index
// and the joiner's own share.
func (p *pipeline) replay(m *member) error {
	rec := p.rec
	// The reorderer sees envelopes in arrival order and yields them in
	// stamp order — the order the core's index saw.
	ro := protocol.NewReorderer()
	ro.AddRouter(0, protocol.SourceStore)
	ro.AddRouter(0, protocol.SourceJoin)
	var released, out []protocol.Envelope
	for _, a := range m.arrivals {
		var trace uint64
		if a.env.Tuple != nil {
			trace = a.env.Tuple.Seq
		}
		s := rec.begin(OpReorder, trace, -1)
		out = ro.AddInto(a.env, a.src, out[:0])
		rec.end(s)
		released = append(released, out...)
	}
	if ro.Pending() != 0 {
		return fmt.Errorf("ledger: replayed reorderer kept %d envelopes", ro.Pending())
	}
	// The index is built exactly as joiner.NewCore builds it.
	period := p.win.Span / 16
	if period <= 0 {
		period = p.win.Span
	}
	idx, err := index.NewSharded(index.ForPredicate(p.pred, m.rel), period.Milliseconds(),
		p.win, p.pred.IndexAttr(m.rel), 1)
	if err != nil {
		return err
	}
	var cur *tuple.Tuple
	visit := func(stored *tuple.Tuple) bool {
		rt, st := stored, cur
		if m.rel == tuple.S {
			rt, st = cur, stored
		}
		_ = p.win.Contains(stored.TS, cur.TS) && p.pred.Match(rt, st)
		return true
	}
	for _, env := range released {
		t := env.Tuple
		if env.Stream == protocol.StreamStore {
			s := rec.begin(OpIndexInsert, t.Seq, -1)
			idx.Insert(t)
			rec.end(s)
			continue
		}
		s := rec.begin(OpIndexExpire, t.Seq, -1)
		idx.Expire(t.TS)
		rec.end(s)
		cur = t
		plan := p.pred.Plan(t)
		s = rec.begin(OpIndexProbe, t.Seq, -1)
		idx.Probe(plan, visit)
		rec.end(s)
	}
	return nil
}

// checkpoint times a snapshot of one member's end-of-run window plus
// its segment encoding — what a checkpoint round pays before the store
// write.
func (p *pipeline) checkpoint(m *member, res *Result) {
	s := p.rec.begin(OpCheckpoint, 0, -1)
	snap := m.core.Snapshot()
	for _, seg := range snap.Segments {
		res.checkpointBytes += int64(len(checkpoint.EncodeSegment(seg)))
	}
	p.rec.end(s)
	res.checkpointSize = snap.Tuples()
}

// perCall is an op's corrected self time per call, in nanoseconds.
func (r *Result) perCall(ops ...Op) float64 {
	var ns float64
	var calls int64
	for _, o := range ops {
		ns += r.Ops[o].SelfNS
		calls += r.Ops[o].Calls
	}
	if calls == 0 {
		return 0
	}
	return ns / float64(calls)
}

// perItem is an op's corrected self time per item covered.
func (r *Result) perItem(ops ...Op) float64 {
	var ns float64
	var items int64
	for _, o := range ops {
		ns += r.Ops[o].SelfNS
		items += r.Ops[o].Items
	}
	if items == 0 {
		return 0
	}
	return ns / float64(items)
}

// selfNS sums the ops' corrected self time.
func (r *Result) selfNS(ops ...Op) float64 {
	var ns float64
	for _, o := range ops {
		ns += r.Ops[o].SelfNS
	}
	return ns
}

var (
	publishOps = []Op{OpPublishEntry, OpPublishFanout, OpPublishPunct, OpPublishResult}
	consumeOps = []Op{OpConsumeEntry, OpConsumeMember, OpConsumeSink}
)

// PublishNS is the mean time of one Publish call on the run's client.
func (r *Result) PublishNS() float64 { return r.perCall(publishOps...) }

// Metrics renders the run as per-layer metrics. cpuUSPerTuple is the
// untraced engine's figure the coverage is taken against; wire says the
// client was a wire.Client, in which case the broker-call time is
// wire+replica time.
func (r *Result) Metrics(cpuUSPerTuple float64, wire bool) map[string]Metric {
	ns := func(v float64) Metric { return Metric{v, "ns"} }
	m := map[string]Metric{
		"tuple.marshal_ns":             ns(r.perCall(OpTupleMarshal)),
		"tuple.decode_ns":              ns(r.perCall(OpTupleDecode)),
		"tuple.bytes_per_tuple":        {r.bytesPerTuple, "bytes"},
		"protocol.envelope_marshal_ns": ns(r.perCall(OpEnvelopeMarshal)),
		"protocol.envelope_decode_ns":  ns(r.perCall(OpEnvelopeDecode)),
		"broker.publish_ns":            ns(r.PublishNS()),
		"broker.consume_ack_ns":        ns(r.perItem(consumeOps...)),
		"router.route_ns":              ns(r.perCall(OpRoute)),
		"joiner.handle_batch_ns":       ns(r.Ops[OpHandleBatch].TotalNS / float64(max(r.Ops[OpHandleBatch].Items, 1))),
		"tuple.pair_marshal_ns":        ns(r.perCall(OpPairMarshal)),
		"tuple.pair_unmarshal_ns":      ns(r.perCall(OpPairUnmarshal)),
		"dedup.seen_or_add_ns":         ns(r.perCall(OpDedup)),
		"ledger.clock_ns":              ns(r.clockPairNS),
	}
	if r.Ops[OpIndexInsert].Calls > 0 { // replays ran
		m["protocol.reorder_ns"] = ns(r.perCall(OpReorder))
		m["index.insert_ns"] = ns(r.perCall(OpIndexInsert))
		m["index.probe_ns"] = ns(r.perCall(OpIndexProbe))
		m["index.expire_ns"] = ns(r.perCall(OpIndexExpire))
		// The joiner's own share of a handled envelope: the batch call
		// minus the emits inside it (already self time), minus what the
		// reorderer and the index cost when driven alone.
		self := r.selfNS(OpHandleBatch) - r.selfNS(OpReorder, OpIndexInsert, OpIndexProbe, OpIndexExpire)
		m["joiner.self_ns"] = ns(max(self, 0) / float64(max(r.Ops[OpHandleBatch].Items, 1)))
		m["checkpoint.snapshot_ms"] = Metric{r.selfNS(OpCheckpoint) / 1e6, "ms"}
		m["checkpoint.bytes_per_tuple"] = Metric{float64(r.checkpointBytes) / float64(max(r.checkpointSize, 1)), "bytes"}
	}

	// Where the pipeline's time went, by the groups the workloads were
	// chosen to separate.
	transport := r.selfNS(OpPublishEntry, OpPublishFanout, OpPublishPunct, OpConsumeEntry, OpConsumeMember)
	resultTransport := r.selfNS(OpPublishResult, OpConsumeSink)
	message := r.selfNS(OpIngest, OpTupleMarshal, OpTupleDecode, OpRoute, OpEnvelopeMarshal, OpEnvelopeDecode)
	joinerIndex := r.selfNS(OpHandleBatch)
	result := r.selfNS(OpPairMarshal, OpPairUnmarshal, OpDedup)
	var wireNS float64
	if wire {
		wireNS = transport + resultTransport
	} else {
		message += transport
		result += resultTransport
	}
	total := message + joinerIndex + result + wireNS
	share := func(v float64) Metric { return Metric{v / total, "ratio"} }
	m["ledger.share_message_path"] = share(message)
	m["ledger.share_joiner_index"] = share(joinerIndex)
	m["ledger.share_result_path"] = share(result)
	m["ledger.share_wire_replica"] = share(wireNS)
	m["ledger.us_per_tuple"] = Metric{total / 1e3 / float64(r.Tuples), "us"}
	if cpuUSPerTuple > 0 {
		m["ledger.coverage"] = Metric{total / 1e3 / float64(r.Tuples) / cpuUSPerTuple, "ratio"}
	}
	return m
}

// OpTable lists the aggregates by op name, for the human report.
func (r *Result) OpTable() []string {
	var rows []string
	for o := Op(0); o < numOps; o++ {
		st := r.Ops[o]
		if st.Calls == 0 {
			continue
		}
		rows = append(rows, fmt.Sprintf("%-28s calls %9d  items %9d  self %10.1f ms  %9.1f ns/call",
			o, st.Calls, st.Items, st.SelfNS/1e6, st.SelfNS/float64(st.Calls)))
	}
	sort.Strings(rows)
	return rows
}
