package ledger

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bistream/bench/gen"
	"bistream/bench/ref"
	"bistream/internal/broker"
)

// The pipeline has to do the engine's work: for every in-process
// workload its result multiset equals the oracle's, every call site
// records spans, and the spans of one tuple share its trace id.
func TestPipelineMatchesOracleAndTracesEveryLayer(t *testing.T) {
	for _, w := range gen.Workloads {
		if w.Wire {
			continue // the wire run needs a server; bench's smoke test covers it
		}
		t.Run(w.Name, func(t *testing.T) {
			const n = 3000
			st, err := gen.New(w.Stream, 3, n)
			if err != nil {
				t.Fatal(err)
			}
			b := broker.New(nil)
			defer b.Close()
			exp := w.Expected(st)
			res, err := Run(Config{Workload: w, Stream: st, Tuples: n, Pairs: len(exp), Client: b, Replays: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep := ref.Verify(exp, res.Pairs); rep.Failed() != 0 || rep.Got == 0 {
				t.Fatalf("ledger results: %+v", rep)
			}
			// The recorder was sized for the run: a span slice that regrows
			// bills the copy to whichever op is open.
			if c := spanCapacity(n, len(exp)); len(res.Spans) > c || cap(res.Spans) != c {
				t.Errorf("%d spans recorded, capacity %d of %d planned", len(res.Spans), cap(res.Spans), c)
			}
			for op := Op(0); op < numOps; op++ {
				if res.Ops[op].Calls == 0 {
					t.Errorf("no %s spans", op)
				}
			}
			// Tuple 1000's ingest-path spans all carry trace id 1000.
			seen := map[Op]bool{}
			for _, s := range res.Spans {
				if s.Trace == 1000 {
					seen[s.Op] = true
				}
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
				if s.Parent >= 0 && int(s.Parent) >= len(res.Spans) {
					t.Fatalf("span %+v has no such parent", s)
				}
			}
			for _, op := range []Op{OpIngest, OpTupleMarshal, OpPublishEntry, OpConsumeEntry, OpTupleDecode,
				OpRoute, OpEnvelopeMarshal, OpPublishFanout, OpEnvelopeDecode, OpReorder, OpIndexInsert} {
				if !seen[op] {
					t.Errorf("tuple 1000 has no %s span", op)
				}
			}
			m := res.Metrics(10, false)
			var shares float64
			for name, v := range m {
				if strings.HasPrefix(name, "ledger.share_") {
					shares += v.Value
				}
			}
			if shares < 0.999 || shares > 1.001 {
				t.Errorf("ledger shares sum to %v", shares)
			}
		})
	}
}

func TestAggregateSelfTime(t *testing.T) {
	spans := []Span{
		{Op: OpHandleBatch, Parent: -1, N: 4, Start: 0, End: 1000},
		{Op: OpPairMarshal, Parent: 0, N: 1, Start: 100, End: 300}, // inside the batch
		{Op: OpPublishResult, Parent: 0, N: 1, Start: 300, End: 600},
		{Op: OpConsumeSink, Parent: 2, N: 1, Start: 2000, End: 2500}, // caused by, not inside
	}
	ops := aggregate(spans, 0, 0)
	if got := ops[OpHandleBatch].SelfNS; got != 500 {
		t.Errorf("batch self = %v, want 500", got)
	}
	if got := ops[OpPublishResult].SelfNS; got != 300 {
		t.Errorf("a causal child came off its parent: publish self = %v, want 300", got)
	}
	if ops[OpHandleBatch].Items != 4 || ops[OpHandleBatch].TotalNS != 1000 {
		t.Errorf("batch stats %+v", ops[OpHandleBatch])
	}
	// With a recorder cost of 10 per clock read and 30 per begin/end
	// pair, the batch loses its own read and 20 per enclosed child.
	ops = aggregate(spans, 10, 30)
	if got := ops[OpHandleBatch].SelfNS; got != 500-10-2*20 {
		t.Errorf("corrected batch self = %v", got)
	}
}

func TestWriteSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, []Span{{Trace: 7, Op: OpRoute, Parent: -1, N: 1, Start: 5, End: 9}}); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["op"] != "router.route" || got["trace"] != 7.0 || got["end_ns"] != 9.0 {
		t.Errorf("dump line %v", got)
	}
}
