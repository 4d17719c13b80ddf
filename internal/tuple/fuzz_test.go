package tuple

import (
	"bytes"
	"math"
	"testing"
)

// sameTuple compares decoded tuples semantically (NaN-aware).
func sameTuple(a, b *Tuple) bool {
	if a.Rel != b.Rel || a.Seq != b.Seq || a.TS != b.TS || a.TraceNS != b.TraceNS || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		va, vb := a.Values[i], b.Values[i]
		if va.Kind() != vb.Kind() {
			return false
		}
		if va.Kind() == KindFloat && math.IsNaN(va.AsFloat()) && math.IsNaN(vb.AsFloat()) {
			continue
		}
		if !va.Equal(vb) && va.IsValid() {
			return false
		}
	}
	return true
}

// FuzzUnmarshal checks the tuple codec never panics on arbitrary input
// and that everything it accepts round-trips semantically (byte
// identity is not required: varint lengths have non-canonical
// encodings that decode fine but re-encode minimally).
func FuzzUnmarshal(f *testing.F) {
	f.Add(Marshal(New(R, 1, 2, Int(3))))
	f.Add(Marshal(New(S, 1<<60, -9, Float(3.25), String("héllo"), Int(-1))))
	traced := New(R, 7, 8, Int(9))
	traced.TraceNS = 1_700_000_000_000_000_001
	f.Add(Marshal(traced))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := Unmarshal(data)
		if err != nil {
			return
		}
		body := Marshal(tp)
		if n := EncodedLen(tp); n != len(body) {
			t.Fatalf("EncodedLen = %d, encoding is %d bytes", n, len(body))
		}
		tp2, err := Unmarshal(body)
		if err != nil {
			t.Fatalf("re-encoded tuple does not decode: %v", err)
		}
		if !sameTuple(tp, tp2) {
			t.Fatalf("semantic round-trip mismatch: %v vs %v", tp, tp2)
		}
	})
}

// FuzzUnmarshalPair does the same for the result-pair codec.
func FuzzUnmarshalPair(f *testing.F) {
	pair := AppendBinary(Marshal(New(R, 1, 2, Int(3))), New(S, 4, 5, Int(3)))
	f.Add(pair)
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, err := UnmarshalPair(data)
		if err != nil {
			return
		}
		a2, b2, err := UnmarshalPair(AppendBinary(Marshal(a), b))
		if err != nil {
			t.Fatalf("re-encoded pair does not decode: %v", err)
		}
		if !sameTuple(a, a2) || !sameTuple(b, b2) {
			t.Fatal("semantic round-trip mismatch")
		}
	})
}

// FuzzResultFrame does the same for multi-pair result frames through
// the slab decoder, in the plain encoding and through a FrameEncoder,
// and checks a rejected frame leaves the decoder's slabs and the
// caller's slice as they were.
func FuzzResultFrame(f *testing.F) {
	l, r := New(R, 1, 2, Int(3)), New(S, 4, 5, Int(3), String("s"))
	r.TraceNS = 6
	f.Add(AppendPair(nil, l, r))
	f.Add(AppendPair(AppendPair(nil, l, r), r, l))
	f.Add(Marshal(l))
	f.Add([]byte{})
	var e FrameEncoder
	e.AppendPair(l, r)
	e.AppendPair(New(R, 7, 8, Int(3)), r)
	e.AppendPair(l, r)
	f.Add(bytes.Clone(e.Bytes()))                                // back-references to 0 and 1
	f.Add(append(AppendPair(nil, l, r), backRef, 1, backRef, 0)) // a reversed pair
	f.Add([]byte{backRef, 0})                                    // back-reference at the start
	f.Add(append(AppendPair(nil, l, r), backRef, 2, backRef, 0)) // index past the tuples so far
	f.Add(append(AppendPair(nil, l, r), backRef, 0x80))          // truncated uvarint
	f.Fuzz(func(t *testing.T, frame []byte) {
		var d Decoder
		// A live slab for a rejected frame to leak into.
		if _, err := d.Unmarshal(Marshal(l)); err != nil {
			t.Fatal(err)
		}
		tuples, values := len(d.tuples), len(d.values)
		got, err := d.AppendPairs(nil, frame)
		if err != nil {
			if len(got) != 0 || len(d.tuples) != tuples || len(d.values) != values {
				t.Fatalf("rejected frame kept %d tuples or leaked slab slots", len(got))
			}
			return
		}
		var again []byte
		for i := 0; i < len(got); i += 2 {
			again = AppendPair(again, got[i], got[i+1])
		}
		got2, err := d.AppendPairs(nil, again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if len(got2) != len(got) {
			t.Fatalf("re-encoded frame has %d tuples, want %d", len(got2), len(got))
		}
		for i := range got {
			if !sameTuple(got[i], got2[i]) {
				t.Fatalf("tuple %d: semantic round-trip mismatch", i)
			}
		}
		// Through the encoder: the same tuples, and a tuple shared by
		// several positions stays shared, and only such a one.
		var e FrameEncoder
		for i := 0; i < len(got); i += 2 {
			e.AppendPair(got[i], got[i+1])
		}
		got3, err := d.AppendPairs(nil, e.Bytes())
		if err != nil {
			t.Fatalf("frame encoder output does not decode: %v", err)
		}
		if len(got3) != len(got) {
			t.Fatalf("frame encoder output has %d tuples, want %d", len(got3), len(got))
		}
		first := map[*Tuple]*Tuple{}
		for i := range got {
			if !sameTuple(got[i], got3[i]) {
				t.Fatalf("tuple %d: frame encoder round-trip mismatch", i)
			}
			if p, ok := first[got3[i]]; ok && p != got[i] {
				t.Fatalf("tuple %d: distinct tuples decoded to one *Tuple", i)
			}
			first[got3[i]] = got[i]
		}
		if len(first) != len(e.tuples) {
			t.Fatalf("%d distinct decoded tuples, the encoder wrote %d", len(first), len(e.tuples))
		}
	})
}
