// Package ledger is the benchmark's traced run: it pushes a workload's
// first tuples through a pipeline hand-wired from the layers' public
// functions, in the order a tuple crosses them inside the engine, on
// one goroutine, and records a span around every call. The spans give
// each layer's self time per call; the pipeline's result multiset is
// checked against the same oracle as the engine's, so the ledger is
// known to do the same work.
//
// All instrumentation lives here, outside the program: nothing in the
// engine is touched, and end-to-end metrics never come from this run.
package ledger

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"time"
)

// Op names one instrumented call site, "<layer>.<operation>".
type Op uint8

// The instrumented call sites, in pipeline order.
const (
	OpIngest Op = iota // core: marshal + entry publish, as Engine.Ingest does
	OpTupleMarshal
	OpPublishEntry
	OpConsumeEntry // wait for the entry delivery, and its ack
	OpTupleDecode
	OpRoute
	OpEnvelopeMarshal
	OpPublishFanout // store and join copies
	OpPublishPunct
	OpConsumeMember // wait for a joiner-queue delivery, and the batch ack
	OpEnvelopeDecode
	OpHandleBatch
	OpPairMarshal
	OpPublishResult
	OpConsumeSink
	OpPairUnmarshal
	OpDedup
	// Replays: one layer driven alone with the sequence the pipeline's
	// joiners saw, to split joiner.handle_batch into its parts.
	OpReorder
	OpIndexInsert
	OpIndexProbe
	OpIndexExpire
	OpCheckpoint
	numOps
)

var opNames = [numOps]string{
	"core.ingest", "tuple.marshal", "broker.publish_entry", "broker.consume_entry",
	"tuple.decode", "router.route", "protocol.envelope_marshal", "broker.publish_fanout",
	"broker.publish_punct", "broker.consume_member", "protocol.envelope_decode",
	"joiner.handle_batch", "tuple.pair_marshal", "broker.publish_result",
	"broker.consume_sink", "tuple.pair_unmarshal", "dedup.seen_or_add",
	"protocol.reorder", "index.insert", "index.probe", "index.expire", "checkpoint.snapshot",
}

// String returns the op's "<layer>.<operation>" name.
func (o Op) String() string { return opNames[o] }

// Span is one timed call. Spans of one tuple share its sequence number
// as trace id (a batch span carries its first tuple's); Parent is the
// index of the span that caused this one — the call it ran inside, or
// the earlier stage whose output it consumed — and -1 for a root. N is
// how many items the call covered when that is not one (a batch; 0 for
// the second half of an operation already counted).
type Span struct {
	Trace  uint64
	Op     Op
	Parent int32
	N      int32
	Start  int64 // nanoseconds since the recorder was created
	End    int64
}

// recorder collects spans in memory; nothing is written until the run
// is over.
type recorder struct {
	base  time.Time
	spans []Span
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]Span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its index.
func (r *recorder) begin(op Op, trace uint64, parent int32) int32 {
	r.spans = append(r.spans, Span{Trace: trace, Op: op, Parent: parent, N: 1, Start: r.now()})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) { r.spans[i].End = r.now() }

// endN closes span i and records how many items it covered.
func (r *recorder) endN(i int32, n int) {
	r.spans[i].End = r.now()
	r.spans[i].N = int32(n)
}

// clockCost measures what the recorder itself adds: inner is the
// duration an empty span reports (one clock read), pair the whole cost
// of a begin/end pair. Self times are corrected by these.
func clockCost() (inner, pair float64) {
	const n = 20000
	r := newRecorder(n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin(OpIngest, 0, -1))
	}
	pair = float64(time.Since(t0)) / n
	d := make([]int64, n)
	for i, s := range r.spans {
		d[i] = s.End - s.Start
	}
	slices.Sort(d)
	return float64(d[n/2]), pair
}

// OpStats aggregates one op over a run.
type OpStats struct {
	Calls int64 // spans
	Items int64 // Σ N
	// TotalNS is Σ duration, SelfNS is Σ (duration − direct children),
	// both corrected for the recorder's own cost.
	TotalNS, SelfNS float64
}

// aggregate folds the spans into per-op statistics.
func aggregate(spans []Span, inner, pair float64) [numOps]OpStats {
	childNS := make([]int64, len(spans))
	childN := make([]int32, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		// Only the part of a child inside its parent's interval comes off
		// the parent's self time; a causal parent from an earlier stage
		// does not overlap its children at all.
		p := spans[s.Parent]
		if in := min(s.End, p.End) - max(s.Start, p.Start); in > 0 {
			childNS[s.Parent] += in
			childN[s.Parent]++
		}
	}
	var out [numOps]OpStats
	for i, s := range spans {
		st := &out[s.Op]
		st.Calls++
		st.Items += int64(s.N)
		dur := float64(s.End - s.Start)
		// A span's duration holds one clock read of its own; each child
		// adds the part of its begin/end pair that falls outside the
		// child's own duration.
		st.TotalNS += max(dur-inner, 0)
		st.SelfNS += max(dur-float64(childNS[i])-inner-float64(childN[i])*(pair-inner), 0)
	}
	return out
}

// WriteSpans dumps the spans as JSON lines, one span per line with its
// index as id, so a tuple's spans can be pulled out with grep on
// "trace".
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID     int    `json:"id"`
			Trace  uint64 `json:"trace"`
			Op     string `json:"op"`
			Parent int32  `json:"parent"`
			N      int32  `json:"n"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.Trace, s.Op.String(), s.Parent, s.N, s.Start, s.End}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
