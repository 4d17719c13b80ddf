package tuple

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{String("x"), KindString},
		{Value{}, KindInvalid},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%#v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if (Value{}).IsValid() {
		t.Error("zero Value should be invalid")
	}
	if !Int(0).IsValid() {
		t.Error("Int(0) should be valid")
	}
}

func TestValueAccessors(t *testing.T) {
	if got := Int(-7).AsInt(); got != -7 {
		t.Errorf("AsInt = %d, want -7", got)
	}
	if got := Int(3).AsFloat(); got != 3.0 {
		t.Errorf("Int.AsFloat = %v, want 3", got)
	}
	if got := Float(2.25).AsFloat(); got != 2.25 {
		t.Errorf("AsFloat = %v, want 2.25", got)
	}
	if got := String("abc").AsString(); got != "abc" {
		t.Errorf("AsString = %q, want abc", got)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Float(1.5), Float(1.5), true},
		{Float(1.5), Float(2.5), false},
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Int(2), Float(2.0), true},
		{Float(2.0), Int(2), true},
		{Int(2), Float(2.5), false},
		{Int(1), String("1"), false},
		{Value{}, Value{}, false},
		{Value{}, Int(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{String("a"), String("a"), 0},
		{Int(99), String(""), -1}, // numerics order before strings
		{String(""), Int(99), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueHashEqualImpliesSameHash(t *testing.T) {
	// Int and integral Float that compare Equal must hash identically,
	// otherwise hash routing would separate joinable tuples.
	f := func(v int32) bool {
		a, b := Int(int64(v)), Float(float64(v))
		return !a.Equal(b) || a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Float(math.Inf(1)).Hash() == Float(math.Inf(-1)).Hash() {
		t.Error("±Inf should hash differently")
	}
}

func TestValueHashSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		seen[Int(i).Hash()] = true
	}
	if len(seen) != 1000 {
		t.Errorf("hash collisions over 1000 sequential ints: %d distinct", len(seen))
	}
}

func TestSchema(t *testing.T) {
	s, err := NewSchema(Field{"id", KindInt}, Field{"price", KindFloat}, Field{"sym", KindString})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFields() != 3 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
	if s.Index("price") != 1 {
		t.Errorf("Index(price) = %d", s.Index("price"))
	}
	if s.Index("nope") != -1 {
		t.Errorf("Index(nope) = %d", s.Index("nope"))
	}
	if got := s.Field(2).Name; got != "sym" {
		t.Errorf("Field(2) = %q", got)
	}
	if !strings.Contains(s.String(), "price float") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Field{"", KindInt}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema(Field{"a", KindInvalid}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := NewSchema(Field{"a", KindInt}, Field{"a", KindInt}); err == nil {
		t.Error("duplicate name accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on error")
		}
	}()
	MustSchema(Field{"", KindInt})
}

func TestRelation(t *testing.T) {
	if R.Opposite() != S || S.Opposite() != R {
		t.Error("Opposite is wrong")
	}
	if R.String() != "R" || S.String() != "S" {
		t.Error("String is wrong")
	}
}

func TestTupleValue(t *testing.T) {
	tp := New(R, 1, 100, Int(5), String("x"))
	if !tp.Value(0).Equal(Int(5)) {
		t.Error("Value(0) mismatch")
	}
	if tp.Value(-1).IsValid() || tp.Value(2).IsValid() {
		t.Error("out-of-range Value should be invalid")
	}
	if s := tp.String(); !strings.Contains(s, "R#1@100") {
		t.Errorf("String = %q", s)
	}
}

func TestTupleMemSize(t *testing.T) {
	small := New(R, 1, 1, Int(1))
	big := New(R, 1, 1, Int(1), String(strings.Repeat("x", 1000)))
	if small.MemSize() <= 0 {
		t.Error("MemSize should be positive")
	}
	if big.MemSize() < small.MemSize()+1000 {
		t.Errorf("MemSize should count string bytes: small=%d big=%d",
			small.MemSize(), big.MemSize())
	}
}

func TestJoinResultNormalizesSides(t *testing.T) {
	r := New(R, 1, 10, Int(1))
	s := New(S, 2, 20, Int(1))
	jr1 := NewJoinResult(r, s)
	jr2 := NewJoinResult(s, r)
	if jr1.Left.Rel != R || jr1.Right.Rel != S {
		t.Error("JoinResult sides not normalized")
	}
	if jr1.Key() != jr2.Key() {
		t.Error("Key should be order independent")
	}
	if jr1.TS != 20 {
		t.Errorf("TS = %d, want max(10,20)=20", jr1.TS)
	}
	if !strings.Contains(jr1.String(), "⋈") {
		t.Errorf("String = %q", jr1.String())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []*Tuple{
		New(R, 0, 0),
		New(S, 18446744073709551615, -5, Int(math.MinInt64), Int(math.MaxInt64)),
		New(R, 7, 123456, Float(math.Pi), String("héllo"), Int(-1)),
		New(S, 1, 1, String("")),
	}
	for _, in := range cases {
		data := Marshal(in)
		out, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", in, err)
		}
		if out.Rel != in.Rel || out.Seq != in.Seq || out.TS != in.TS ||
			len(out.Values) != len(in.Values) {
			t.Fatalf("round trip mismatch: %v vs %v", in, out)
		}
		for i := range in.Values {
			if !in.Values[i].Equal(out.Values[i]) && in.Values[i].IsValid() {
				t.Fatalf("value %d mismatch: %v vs %v", i, in, out)
			}
		}
	}
}

// encodeShapes are the tuple shapes the encoder pins cover: int,
// float, string (one long enough for a two-byte length) and traced.
func encodeShapes() map[string]*Tuple {
	traced := New(R, 5, 6, Int(7), Int(8))
	traced.TraceNS = 1_700_000_000_000_000_001
	return map[string]*Tuple{
		"int":    New(R, 1, 2, Int(3), Int(4)),
		"float":  New(S, 1, 2, Float(math.Pi), Float(-0.5)),
		"string": New(S, 1, 2, String("héllo"), String(strings.Repeat("x", 200))),
		"traced": traced,
	}
}

var sinkBytes []byte

// TestMarshalAllocations pins Marshal at one allocation: EncodedLen
// sizes the buffer exactly, so AppendBinary never grows it.
func TestMarshalAllocations(t *testing.T) {
	for name, tp := range encodeShapes() {
		if a := testing.AllocsPerRun(100, func() { sinkBytes = Marshal(tp) }); a != 1 {
			t.Errorf("%s: Marshal allocates %.1f times, want 1", name, a)
		}
		if n := EncodedLen(tp); len(sinkBytes) != n || cap(sinkBytes) != n {
			t.Errorf("%s: EncodedLen %d, encoding len %d cap %d", name, n, len(sinkBytes), cap(sinkBytes))
		}
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	f := func(seq uint64, ts int64, i int64, fl float64, s string) bool {
		in := New(S, seq, ts, Int(i), Float(fl), String(s))
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			return false
		}
		if out.Seq != seq || out.TS != ts {
			return false
		}
		okF := out.Values[1].AsFloat() == fl || (math.IsNaN(fl) && math.IsNaN(out.Values[1].AsFloat()))
		return out.Values[0].AsInt() == i && okF && out.Values[2].AsString() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecCorruptInputs(t *testing.T) {
	good := Marshal(New(R, 1, 2, Int(3), String("abcd")))
	cases := [][]byte{
		nil,
		{},
		good[:5],
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xff),
		func() []byte { b := append([]byte{}, good...); b[0] = 9; return b }(), // bad relation
		func() []byte { b := append([]byte{}, good...); b[17] = 200; return b }(),
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestCodecCorruptQuick(t *testing.T) {
	// Random byte slices must never panic, only error or decode.
	f := func(data []byte) bool {
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	tp := New(R, 42, 123456789, Int(7), Float(3.14), String("abcdefgh"))
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendBinary(buf[:0], tp)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data := Marshal(New(R, 42, 123456789, Int(7), Float(3.14), String("abcdefgh")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestJoinResultFlatten(t *testing.T) {
	r := New(R, 1, 10, Int(7), String("order"))
	s := New(S, 2, 20, Int(7), Float(1.5))
	flat := NewJoinResult(r, s).Flatten(R, 99)
	if flat.Rel != R || flat.Seq != 99 || flat.TS != 20 {
		t.Errorf("flat header = %v", flat)
	}
	if len(flat.Values) != 4 {
		t.Fatalf("flat has %d values", len(flat.Values))
	}
	if !flat.Value(0).Equal(Int(7)) || flat.Value(1).AsString() != "order" ||
		!flat.Value(2).Equal(Int(7)) || flat.Value(3).AsFloat() != 1.5 {
		t.Errorf("flat values = %v", flat)
	}
}
