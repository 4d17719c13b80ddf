package tuple

import (
	"bytes"
	"errors"
	"testing"
)

func decodeCases() []*Tuple {
	traced := New(R, 5, 50, Int(99))
	traced.TraceNS = 1234
	return []*Tuple{
		New(R, 1, 10, Int(7)),
		New(S, 2, 20, Int(-3), Float(2.5)),
		New(R, 3, 30),
		New(S, 4, 40, String("hello"), String(""), Int(0)),
		traced,
	}
}

func wantSameTuple(t *testing.T, got, want *Tuple) {
	t.Helper()
	if got.Rel != want.Rel || got.Seq != want.Seq || got.TS != want.TS || got.TraceNS != want.TraceNS {
		t.Fatalf("header mismatch: got %+v, want %+v", got, want)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("got %d values, want %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if !got.Values[i].Equal(want.Values[i]) || got.Values[i].Kind() != want.Values[i].Kind() {
			t.Fatalf("value %d: got %#v, want %#v", i, got.Values[i], want.Values[i])
		}
	}
}

func TestDecoderMatchesUnmarshal(t *testing.T) {
	var d Decoder
	for _, want := range decodeCases() {
		body := Marshal(want)
		got, err := d.Unmarshal(body)
		if err != nil {
			t.Fatalf("Decoder.Unmarshal(%v): %v", want, err)
		}
		wantSameTuple(t, got, want)
		plain, err := Unmarshal(body)
		if err != nil {
			t.Fatal(err)
		}
		wantSameTuple(t, got, plain)
	}
}

func TestDecoderEarlierTuplesSurviveChunkGrowth(t *testing.T) {
	var d Decoder
	// Decode far more tuples than one chunk holds and verify pointers
	// handed out before every chunk rollover still read correctly: the
	// decoder must never recycle a slab in place.
	const n = 3 * decoderTupleChunk
	got := make([]*Tuple, 0, n)
	for i := 0; i < n; i++ {
		body := Marshal(New(R, uint64(i), int64(i), Int(int64(i)), String("v")))
		tp, err := d.Unmarshal(body)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tp)
	}
	for i, tp := range got {
		if tp.Seq != uint64(i) || tp.TS != int64(i) {
			t.Fatalf("tuple %d corrupted: %+v", i, tp)
		}
		if v := tp.Values[0]; v.AsInt() != int64(i) {
			t.Fatalf("tuple %d value corrupted: %#v", i, v)
		}
		if v := tp.Values[1]; v.AsString() != "v" {
			t.Fatalf("tuple %d string corrupted: %#v", i, v)
		}
	}
}

func TestDecoderWideTupleGetsOwnSlab(t *testing.T) {
	var d Decoder
	vals := make([]Value, 2*decoderValueChunk)
	for i := range vals {
		vals[i] = Int(int64(i))
	}
	wide := New(R, 1, 1, vals...)
	got, err := d.Unmarshal(Marshal(wide))
	if err != nil {
		t.Fatal(err)
	}
	wantSameTuple(t, got, wide)
	// And the decoder still works for the next (normal) tuple.
	next, err := d.Unmarshal(Marshal(New(S, 2, 2, Int(5))))
	if err != nil {
		t.Fatal(err)
	}
	if next.Values[0].AsInt() != 5 {
		t.Fatalf("tuple after wide decode corrupted: %+v", next)
	}
}

func TestDecoderRejectsCorrupt(t *testing.T) {
	var d Decoder
	good := Marshal(New(R, 1, 10, Int(7)))
	cases := [][]byte{
		nil,
		good[:3],
		good[:len(good)-2],
		append(append([]byte{}, good...), 0xff), // trailing byte
		{0x07, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // bad relation
	}
	for i, body := range cases {
		if _, err := d.Unmarshal(body); err == nil {
			t.Errorf("case %d: corrupt body decoded without error", i)
		}
	}
	// The decoder stays usable after errors and hands back the slots.
	got, err := d.Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || got.Values[0].AsInt() != 7 {
		t.Fatalf("decode after errors corrupted: %+v", got)
	}
}

// framePairs builds n result pairs cycling through decodeCases, so a
// frame mixes int, float and string values and traced and untraced
// tuples.
func framePairs(n int) []*Tuple {
	cases := decodeCases()
	pairs := make([]*Tuple, 0, 2*n)
	for i := 0; i < n; i++ {
		l, r := *cases[i%len(cases)], *cases[(i+1)%len(cases)]
		l.Seq, r.Seq = uint64(2*i+1), uint64(2*i+2)
		pairs = append(pairs, &l, &r)
	}
	return pairs
}

func TestResultFrameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 1000} {
		want := framePairs(n)
		var frame []byte
		for i := 0; i < len(want); i += 2 {
			frame = AppendPair(frame, want[i], want[i+1])
		}
		var d Decoder
		prefix := []*Tuple{New(R, 99, 99)}
		got, err := d.AppendPairs(prefix, frame)
		if err != nil {
			t.Fatalf("%d pairs: %v", n, err)
		}
		if len(got) != 1+len(want) || got[0] != prefix[0] {
			t.Fatalf("%d pairs: got %d tuples, want the prefix and %d", n, len(got), len(want))
		}
		for i, w := range want {
			wantSameTuple(t, got[1+i], w)
		}
	}
}

// TestResultFrameOfOnePairIsThePairBody: a one-pair frame is byte for
// byte the single-pair result body, so old bodies (checkpointed retry
// backlogs, single-pair publishers) decode as frames and a one-pair
// frame decodes with UnmarshalPair.
func TestResultFrameOfOnePairIsThePairBody(t *testing.T) {
	l, r := decodeCases()[3], decodeCases()[4]
	frame := AppendPair(nil, l, r)
	if body := AppendBinary(Marshal(l), r); !bytes.Equal(frame, body) {
		t.Fatalf("one-pair frame %x differs from the pair body %x", frame, body)
	}
	gl, gr, err := UnmarshalPair(frame)
	if err != nil {
		t.Fatal(err)
	}
	wantSameTuple(t, gl, l)
	wantSameTuple(t, gr, r)
}

func TestResultFrameRejectsMalformed(t *testing.T) {
	pairs := framePairs(3)
	var good []byte
	for i := 0; i < len(pairs); i += 2 {
		good = AppendPair(good, pairs[i], pairs[i+1])
	}
	one := Marshal(pairs[0])
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// good holds six distinct tuples, so back-references 0 to 5 are in
	// range after it and 6 is not.
	cases := map[string][]byte{
		"empty":                    nil,
		"odd":                      cat(good, one),
		"single tuple":             one,
		"truncated last pair":      good[:len(good)-3],
		"truncated header":         cat(good, one[:5]),
		"back-reference at start":  cat([]byte{backRef, 0}, one),
		"back-reference past end":  cat(good, one, []byte{backRef, 7}),
		"back-reference to itself": cat(good, []byte{backRef, 6}, one),
		"truncated back-reference": cat(good, one, []byte{backRef}),
		"unterminated uvarint":     cat(good, one, []byte{backRef, 0x80}),
		"overlong uvarint":         cat(good, one, []byte{backRef}, bytes.Repeat([]byte{0xff}, 10), []byte{1}),
	}
	var d Decoder
	// Take a slab slot first so the decoder's chunks are live.
	if _, err := d.AppendPairs(nil, good); err != nil {
		t.Fatal(err)
	}
	for name, frame := range cases {
		tuples, values := len(d.tuples), len(d.values)
		dst := []*Tuple{pairs[0]}
		got, err := d.AppendPairs(dst, frame)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: malformed frame decoded with error %v, want ErrCorrupt", name, err)
			continue
		}
		if len(got) != 1 || got[0] != pairs[0] {
			t.Errorf("%s: dst changed to %d tuples on error", name, len(got))
		}
		if len(d.tuples) != tuples || len(d.values) != values {
			t.Errorf("%s: slab slots leaked: tuples %d → %d, values %d → %d",
				name, tuples, len(d.tuples), values, len(d.values))
		}
	}
	// The decoder still works after the errors.
	got, err := d.AppendPairs(nil, good)
	if err != nil || len(got) != len(pairs) {
		t.Fatalf("decode after errors: %d tuples, %v", len(got), err)
	}
	for i, w := range pairs {
		wantSameTuple(t, got[i], w)
	}
}

// TestResultFrameDecodeAllocations pins the sink's decode cost: a
// 64-pair frame of int tuples through a warm Decoder into a reused
// slice costs at most one amortised allocation (the slab chunks), not
// one per tuple (make perf-pins).
func TestResultFrameDecodeAllocations(t *testing.T) {
	var frame []byte
	for i := 0; i < 64; i++ {
		frame = AppendPair(frame, New(R, uint64(i), int64(i), Int(int64(i))), New(S, uint64(i), int64(i), Int(int64(i))))
	}
	var d Decoder
	dst := make([]*Tuple, 0, 128)
	decode := func() {
		var err error
		if dst, err = d.AppendPairs(dst[:0], frame); err != nil || len(dst) != 128 {
			t.Fatalf("decoded %d tuples: %v", len(dst), err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(1000, decode); got > 1 {
		t.Errorf("decoding a 64-pair frame allocates %v per frame, want at most 1", got)
	}
}

// BenchmarkDecodeBatch measures the batched decode path against the
// allocation profile the consume loop sees: one slab-backed decoder
// amortizing tuple and value allocations across a stream of bodies.
func BenchmarkDecodeBatch(b *testing.B) {
	bodies := make([][]byte, 512)
	for i := range bodies {
		bodies[i] = Marshal(New(R, uint64(i), int64(i), Int(int64(i%1000)), Int(int64(i))))
	}
	b.Run("decoder", func(b *testing.B) {
		var d Decoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Unmarshal(bodies[i%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(bodies[i%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
