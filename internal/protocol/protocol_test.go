package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bistream/internal/tuple"
)

func tupEnv(router int32, counter uint64, stream Stream) Envelope {
	return Envelope{
		Kind:     KindTuple,
		RouterID: router,
		Counter:  counter,
		Stream:   stream,
		Tuple:    tuple.New(tuple.R, counter, int64(counter), tuple.Int(int64(counter))),
	}
}

func punct(router int32, counter uint64) Envelope {
	return Envelope{Kind: KindPunctuation, RouterID: router, Counter: counter}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	in := tupEnv(3, 42, StreamJoin)
	out, err := UnmarshalEnvelope(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindTuple || out.RouterID != 3 || out.Counter != 42 || out.Stream != StreamJoin {
		t.Errorf("round trip = %+v", out)
	}
	if out.Tuple.Seq != 42 {
		t.Errorf("tuple = %v", out.Tuple)
	}
	p := punct(7, 100)
	out, err = UnmarshalEnvelope(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindPunctuation || out.RouterID != 7 || out.Counter != 100 {
		t.Errorf("punctuation round trip = %+v", out)
	}
}

var sinkBody []byte

// TestEnvelopeMarshalAllocations pins Marshal at one allocation for a
// tuple envelope of every value kind, a traced one and a punctuation:
// the buffer is sized exactly up front.
func TestEnvelopeMarshalAllocations(t *testing.T) {
	traced := tuple.New(tuple.R, 5, 6, tuple.Int(7), tuple.Int(8))
	traced.TraceNS = 1_700_000_000_000_000_001
	envs := map[string]Envelope{
		"int":         {Kind: KindTuple, Stream: StreamStore, Tuple: tuple.New(tuple.R, 1, 2, tuple.Int(3), tuple.Int(4))},
		"float":       {Kind: KindTuple, Stream: StreamJoin, Tuple: tuple.New(tuple.S, 1, 2, tuple.Float(0.5))},
		"string":      {Kind: KindTuple, Stream: StreamJoin, Tuple: tuple.New(tuple.S, 1, 2, tuple.String("héllo"))},
		"traced":      {Kind: KindTuple, Stream: StreamStore, Tuple: traced},
		"punctuation": punct(3, 9),
	}
	for name, e := range envs {
		if a := testing.AllocsPerRun(100, func() { sinkBody = e.Marshal() }); a != 1 {
			t.Errorf("%s: Marshal allocates %.1f times, want 1", name, a)
		}
		if len(sinkBody) != cap(sinkBody) {
			t.Errorf("%s: %d-byte envelope in a %d-byte buffer", name, len(sinkBody), cap(sinkBody))
		}
	}
}

func TestEnvelopeCorrupt(t *testing.T) {
	good := tupEnv(1, 1, StreamStore).Marshal()
	cases := [][]byte{
		nil,
		good[:5],
		good[:13],
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		func() []byte { b := append([]byte{}, good...); b[13] = 0; return b }(), // bad stream
		append(punct(1, 1).Marshal(), 0xff),
	}
	for i, c := range cases {
		if _, err := UnmarshalEnvelope(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEnvelopeCorruptQuick(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = UnmarshalEnvelope(data)
		return true // must not panic
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStamperLogical(t *testing.T) {
	s := NewStamperFunc(5, func() uint64 { return 0 })
	if s.RouterID() != 5 {
		t.Error("RouterID wrong")
	}
	if s.Current() != 0 {
		t.Error("initial counter should be 0")
	}
	for i := uint64(1); i <= 10; i++ {
		if got := s.Next(); got != i {
			t.Fatalf("Next = %d, want %d", got, i)
		}
	}
	if s.Current() != 10 {
		t.Errorf("Current = %d", s.Current())
	}
	if s.Punctuation() != 10 {
		t.Errorf("Punctuation = %d", s.Punctuation())
	}
}

func TestStamperHybridClock(t *testing.T) {
	var now uint64
	s := NewStamperFunc(1, func() uint64 { return now })
	now = 100
	if got := s.Next(); got != 100 {
		t.Fatalf("Next = %d, want clock value 100", got)
	}
	// Burst faster than the clock: stamps stay strictly increasing.
	for i := uint64(101); i <= 105; i++ {
		if got := s.Next(); got != i {
			t.Fatalf("burst Next = %d, want %d", got, i)
		}
	}
	// Idle router: punctuation advances with the clock, not the counter —
	// this is what keeps the joiners' minimum frontier moving.
	now = 500
	if got := s.Punctuation(); got != 500 {
		t.Fatalf("Punctuation = %d, want 500", got)
	}
	// And the next stamp must be strictly greater than any punctuation
	// already emitted (the Definition 7 promise).
	if got := s.Next(); got != 501 {
		t.Fatalf("Next after punctuation = %d, want 501", got)
	}
}

func TestStamperWallClockDefault(t *testing.T) {
	s := NewStamper(1)
	a, b := s.Next(), s.Next()
	if b <= a || a == 0 {
		t.Errorf("wall stamps not increasing: %d, %d", a, b)
	}
}

func TestReordererHoldsUntilPunctuation(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	if out := r.Add(tupEnv(1, 1, StreamStore), SourceStore); len(out) != 0 {
		t.Fatalf("released before punctuation: %v", out)
	}
	if r.Pending() != 1 {
		t.Errorf("Pending = %d", r.Pending())
	}
	out := r.Punctuate(1, SourceStore, 1)
	if len(out) != 1 || out[0].Counter != 1 {
		t.Fatalf("release after punctuation = %v", out)
	}
	if r.Released() != 1 {
		t.Errorf("Released = %d", r.Released())
	}
}

func TestReordererSortsByCounter(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	for _, c := range []uint64{5, 2, 9, 1, 7} {
		r.Add(tupEnv(1, c, StreamStore), SourceStore)
	}
	out := r.Punctuate(1, SourceStore, 10)
	got := make([]uint64, len(out))
	for i, e := range out {
		got[i] = e.Counter
	}
	if !reflect.DeepEqual(got, []uint64{1, 2, 5, 7, 9}) {
		t.Errorf("release order = %v", got)
	}
}

func TestReordererMinFrontierGatesAcrossRouters(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	r.AddRouter(2, SourceStore)
	r.Add(tupEnv(1, 3, StreamStore), SourceStore)
	r.Add(tupEnv(2, 2, StreamJoin), SourceStore)
	// Router 1 punctuates to 5, but router 2's frontier is still 0.
	if out := r.Punctuate(1, SourceStore, 5); len(out) != 0 {
		t.Fatalf("released despite router 2 frontier: %v", out)
	}
	// Router 2 punctuates to 2: counter <= 2 releases (both routers'
	// frontiers are >= the released counters).
	out := r.Punctuate(2, SourceStore, 2)
	if len(out) != 1 || out[0].RouterID != 2 || out[0].Counter != 2 {
		t.Fatalf("release = %v", out)
	}
	out = r.Punctuate(2, SourceStore, 10)
	if len(out) != 1 || out[0].Counter != 3 {
		t.Fatalf("second release = %v", out)
	}
}

func TestReordererTieBreakByRouter(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	r.AddRouter(2, SourceStore)
	r.Add(tupEnv(2, 4, StreamStore), SourceStore)
	r.Add(tupEnv(1, 4, StreamStore), SourceStore)
	r.Punctuate(1, SourceStore, 10)
	out := r.Punctuate(2, SourceStore, 10)
	if len(out) != 2 || out[0].RouterID != 1 || out[1].RouterID != 2 {
		t.Fatalf("tie break = %v", out)
	}
}

func TestReordererPunctuationViaAdd(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	r.Add(tupEnv(1, 1, StreamStore), SourceStore)
	out := r.Add(punct(1, 1), SourceStore)
	if len(out) != 1 {
		t.Fatalf("punctuation via Add did not release: %v", out)
	}
}

func TestReordererUnknownRouterAutoRegisters(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	r.Punctuate(1, SourceStore, 100)
	// Traffic from an unseen router 9 must gate releases until router 9
	// punctuates, not sneak past the frontier.
	if out := r.Add(tupEnv(9, 1, StreamStore), SourceStore); len(out) != 0 {
		t.Fatalf("unregistered router released immediately: %v", out)
	}
	out := r.Punctuate(9, SourceStore, 1)
	if len(out) != 1 {
		t.Fatalf("release = %v", out)
	}
}

func TestReordererRemoveRouterUnblocks(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	r.AddRouter(2, SourceStore)
	r.Add(tupEnv(1, 1, StreamStore), SourceStore)
	r.Punctuate(1, SourceStore, 5)
	if r.Pending() != 1 {
		t.Fatal("should still be gated by router 2")
	}
	out := r.RemoveRouterAndRelease(2)
	if len(out) != 1 {
		t.Fatalf("release after RemoveRouter = %v", out)
	}
	if r.Routers() != 1 {
		t.Errorf("Routers = %d", r.Routers())
	}
}

func TestReordererFlush(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	for c := uint64(1); c <= 5; c++ {
		r.Add(tupEnv(1, c, StreamStore), SourceStore)
	}
	out := r.Flush()
	if len(out) != 5 || r.Pending() != 0 {
		t.Fatalf("Flush = %d envelopes, pending %d", len(out), r.Pending())
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Counter > out[i].Counter {
			t.Error("Flush out of order")
		}
	}
}

func TestReordererMaxDepth(t *testing.T) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	for c := uint64(1); c <= 8; c++ {
		r.Add(tupEnv(1, c, StreamStore), SourceStore)
	}
	r.Punctuate(1, SourceStore, 8)
	if r.MaxDepth() != 8 {
		t.Errorf("MaxDepth = %d", r.MaxDepth())
	}
}

// TestReordererGlobalOrderProperty: regardless of arrival interleaving,
// the released sequence is sorted by (counter, routerID) — i.e. a
// subsequence of one global sequence (Definition 7).
func TestReordererGlobalOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const routers = 3
		r := NewReorderer()
		var events []Envelope
		for id := int32(1); id <= routers; id++ {
			r.AddRouter(id, SourceStore)
			n := uint64(rng.Intn(20) + 1)
			for c := uint64(1); c <= n; c++ {
				events = append(events, tupEnv(id, c, StreamStore))
			}
			events = append(events, punct(id, n))
			events = append(events, punct(id, n+100)) // final catch-all
		}
		// Shuffle respecting per-router FIFO: pick a random router's
		// next event repeatedly.
		perRouter := map[int32][]Envelope{}
		for _, e := range events {
			perRouter[e.RouterID] = append(perRouter[e.RouterID], e)
		}
		var released []Envelope
		ids := []int32{1, 2, 3}
		for len(perRouter) > 0 {
			id := ids[rng.Intn(len(ids))]
			evs, ok := perRouter[id]
			if !ok {
				continue
			}
			released = append(released, r.Add(evs[0], SourceStore)...)
			if len(evs) == 1 {
				delete(perRouter, id)
			} else {
				perRouter[id] = evs[1:]
			}
		}
		// All tuples must have been released, in global order.
		tuples := 0
		for i, e := range released {
			tuples++
			if i > 0 {
				prev := released[i-1]
				if prev.Counter > e.Counter ||
					(prev.Counter == e.Counter && prev.RouterID > e.RouterID) {
					return false
				}
			}
		}
		want := 0
		for _, e := range events {
			if e.Kind == KindTuple {
				want++
			}
		}
		return tuples == want && r.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReordererAddRelease(b *testing.B) {
	r := NewReorderer()
	r.AddRouter(1, SourceStore)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := uint64(i + 1)
		r.Add(tupEnv(1, c, StreamStore), SourceStore)
		if i%16 == 15 {
			r.Punctuate(1, SourceStore, c)
		}
	}
}
