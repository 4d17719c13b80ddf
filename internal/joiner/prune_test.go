package joiner

import (
	"testing"
	"time"

	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// TestDedupWatermarkPruneBoundsSeen is the regression test for the
// unbounded dedup set: before watermark pruning, every (rel, seq) a
// member ever received stayed in the set until the count cap tripped,
// so a long-lived low-rate member held entries forever. The reorderer's
// release frontier now ages generations out: once it advances a full
// window (+ slack) past the last rotation, nothing below it can be
// redelivered, so those entries rotate away and the set stays bounded
// by what two horizons of traffic admit.
func TestDedupWatermarkPruneBoundsSeen(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := NewCore(Config{
		ID: 0, Rel: tuple.R, Pred: predicate.NewEqui(0, 0),
		Window:  window.Sliding{Span: time.Second},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRouter(1)
	collect := func(tuple.JoinResult) {}

	// Stamps advance 100ms per tuple: each 100-tuple round spans ~3
	// prune horizons (window 1s + 2s slack), forcing rotations.
	const step = 100_000 // stamp µs
	counter := uint64(1)
	seq := uint64(1)
	peak := 0
	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			ts := int64(counter / 1000)
			tp := tuple.New(tuple.R, seq, ts, tuple.Int(int64(seq%50)))
			feed(c, protocol.Envelope{
				Kind: protocol.KindTuple, RouterID: 1, Counter: counter,
				Stream: protocol.StreamStore, Tuple: tp,
			}, protocol.SourceStore, collect)
			seq++
			counter += step
		}
		punctAll(c, counter, collect)
		if l := c.SeenLen(); l > peak {
			peak = l
		}
	}
	total := int(seq - 1)
	if peak >= total {
		t.Fatalf("dedup set never pruned: peak %d of %d ingested", peak, total)
	}
	// Two generations of one round each is the ceiling; leave headroom
	// for rotation granularity.
	if l := c.SeenLen(); l > 400 {
		t.Errorf("dedup set len = %d after sustained ingest, want bounded (<= 400)", l)
	}
	if v, _ := reg.Value("joiner.R.0.dedup_rotations"); v == 0 {
		t.Error("joiner.R.0.dedup_rotations did not advance")
	}
}

// TestDedupWatermarkStillSuppressesRecentRedelivery: pruning must not
// open a duplicate window for stamps at or near the frontier — a
// redelivered envelope inside the horizon is still suppressed.
func TestDedupWatermarkStillSuppressesRecentRedelivery(t *testing.T) {
	c, err := NewCore(Config{
		ID: 0, Rel: tuple.R, Pred: predicate.NewEqui(0, 0),
		Window: window.Sliding{Span: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRouter(1)
	collect := func(tuple.JoinResult) {}
	tp := tuple.New(tuple.R, 9, 1, tuple.Int(4))
	env := protocol.Envelope{
		Kind: protocol.KindTuple, RouterID: 1, Counter: 1000,
		Stream: protocol.StreamStore, Tuple: tp,
	}
	feed(c, env, protocol.SourceStore, collect)
	punctAll(c, 2000, collect)
	feed(c, env, protocol.SourceStore, collect) // broker redelivery
	punctAll(c, 3000, collect)
	if st := c.Stats(); st.Stored != 1 {
		t.Errorf("stored = %d after redelivery, want 1", st.Stored)
	}
}

// TestDedupHoldsDelayedRedeliveryUnderRealStamps drives the core with
// stamps from a real protocol.Stamper: the synthetic counters of the
// tests above cannot notice the stamper's unit and the prune horizon's
// drifting apart, and a horizon a thousand times too short forgets a
// redelivery within milliseconds. A store copy redelivered tens of
// milliseconds later — a broker requeue, a router's nack-and-restamp
// retry arrives no sooner — with punctuations ticking in between, must
// still be suppressed, and no generation may rotate inside the window.
func TestDedupHoldsDelayedRedeliveryUnderRealStamps(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := NewCore(Config{
		ID: 0, Rel: tuple.R, Pred: predicate.NewEqui(0, 0),
		Window:  window.Sliding{Span: time.Second},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRouter(1)
	collect := func(tuple.JoinResult) {}
	st := protocol.NewStamper(1)
	env := protocol.Envelope{
		Kind: protocol.KindTuple, RouterID: 1, Counter: st.Next(),
		Stream: protocol.StreamStore, Tuple: tuple.New(tuple.R, 9, 1, tuple.Int(4)),
	}
	feed(c, env, protocol.SourceStore, collect)
	for i := 0; i < 12; i++ {
		punctAll(c, st.Punctuation(), collect)
		time.Sleep(5 * time.Millisecond)
	}
	feed(c, env, protocol.SourceStore, collect) // redelivered ~60ms on
	punctAll(c, st.Punctuation(), collect)
	if s := c.Stats(); s.Stored != 1 {
		t.Errorf("stored = %d after a redelivery 60ms later, want 1", s.Stored)
	}
	// The first punctuation rotates once (lastRotate starts at 0); a
	// second rotation within 60ms of a 3s horizon is the unit bug.
	if v, _ := reg.Value("joiner.R.0.dedup_rotations"); v > 1 {
		t.Errorf("dedup rotated %v times in 60ms; horizon is %v", v, time.Duration(c.pruneHorizon)*protocol.StampUnit)
	}
	if got, want := time.Duration(c.pruneHorizon)*protocol.StampUnit, 3*time.Second; got != want {
		t.Errorf("prune horizon = %v, want %v (window + 2s)", got, want)
	}
}
