package tuple

import (
	"bytes"
	"math/rand"
	"testing"
)

// encodeFrames writes pairs (left, right, left, right, ...) with a
// FrameEncoder, starting a new frame after each count in sizes pairs,
// and returns the frames.
func encodeFrames(e *FrameEncoder, pairs []*Tuple, sizes []int) [][]byte {
	var frames [][]byte
	i := 0
	for _, n := range sizes {
		for ; n > 0; n-- {
			e.AppendPair(pairs[i], pairs[i+1])
			i += 2
		}
		frames = append(frames, bytes.Clone(e.Bytes()))
		e.Reset()
	}
	return frames
}

// TestFrameEncoderMatchesPlainEncoding is the differential test of the
// back-referenced encoding: random pair streams drawn from a small pool
// of tuples, so pointers repeat within a frame, decode to the same
// tuples as the plain AppendPair encoding of the same pairs, each
// repeat decodes to the same *Tuple as its first appearance in the
// frame and only repeats do, and repeats make the frame shorter. Pool
// tuples share seqs, and some are equal in every field, so only the
// pointer can tell them apart.
func TestFrameEncoderMatchesPlainEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e FrameEncoder // one encoder across rounds: stale slots must read as empty
	for round := 0; round < 200; round++ {
		pool := make([]*Tuple, 1+rng.Intn(300))
		for i := range pool {
			c := *decodeCases()[rng.Intn(len(decodeCases()))]
			c.Seq = uint64(i % 16)
			pool[i] = &c
		}
		var pairs []*Tuple
		var sizes []int
		for f := 1 + rng.Intn(4); f > 0; f-- {
			n := 1 + rng.Intn(400)
			sizes = append(sizes, n)
			for ; n > 0; n-- {
				pairs = append(pairs, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
			}
		}
		frames := encodeFrames(&e, pairs, sizes)
		var d Decoder
		at := 0
		for f, frame := range frames {
			want := pairs[at : at+2*sizes[f]]
			at += 2 * sizes[f]
			var plain []byte
			for i := 0; i < len(want); i += 2 {
				plain = AppendPair(plain, want[i], want[i+1])
			}
			got, err := d.AppendPairs(nil, frame)
			if err != nil {
				t.Fatalf("round %d frame %d: %v", round, f, err)
			}
			fromPlain, err := d.AppendPairs(nil, plain)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(fromPlain) != len(want) {
				t.Fatalf("round %d frame %d: %d and %d tuples, want %d", round, f, len(got), len(fromPlain), len(want))
			}
			first := map[*Tuple]*Tuple{} // input pointer → decoded pointer
			decoded := map[*Tuple]bool{}
			repeats := 0
			for i, w := range want {
				wantSameTuple(t, got[i], fromPlain[i])
				wantSameTuple(t, got[i], w)
				if p, ok := first[w]; ok {
					repeats++
					if got[i] != p {
						t.Fatalf("round %d frame %d: tuple %d repeats %v but decoded to a different *Tuple", round, f, i, w)
					}
				} else {
					first[w] = got[i]
				}
				decoded[got[i]] = true
			}
			if len(decoded) != len(first) {
				t.Fatalf("round %d frame %d: %d distinct tuples decoded to %d", round, f, len(first), len(decoded))
			}
			if repeats > 0 && len(frame) >= len(plain) {
				t.Fatalf("round %d frame %d: %d repeats, yet %d bytes against %d plain", round, f, repeats, len(frame), len(plain))
			}
			if repeats == 0 && !bytes.Equal(frame, plain) {
				t.Fatalf("round %d frame %d: no repeats, yet the frame differs from the plain encoding", round, f)
			}
		}
	}
}

// TestFrameEncoderBackReferences pins the layout: a hot-key frame
// writes the shared probe tuple once, and every later appearance as the
// mark byte and its index in first-appearance order.
func TestFrameEncoderBackReferences(t *testing.T) {
	probe := New(S, 100, 0, Int(7))
	a, b := New(R, 1, 0, Int(7)), New(R, 2, 0, Int(7))
	var e FrameEncoder
	e.AppendPair(a, probe)
	e.AppendPair(b, probe)
	e.AppendPair(a, probe)
	want := AppendBinary(AppendBinary(nil, a), probe) // tuples 0 and 1
	want = append(AppendBinary(want, b), backRef, 1)  // tuple 2, then probe
	want = append(want, backRef, 0, backRef, 1)       // a, probe
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("frame\n%x\nwant\n%x", e.Bytes(), want)
	}
	// A new frame refers to nothing of the old one.
	e.Reset()
	e.AppendPair(a, probe)
	if plain := AppendPair(nil, a, probe); !bytes.Equal(e.Bytes(), plain) {
		t.Fatalf("frame after Reset %x, want the plain pair %x", e.Bytes(), plain)
	}
}

// TestResultFramePlainStillDecodes: a frame built with the plain
// AppendPair — as every result frame was before back-references, and as
// retry backlogs in older checkpoints still are — decodes unchanged,
// repeated tuples included, each occurrence a tuple of its own.
func TestResultFramePlainStillDecodes(t *testing.T) {
	probe := New(S, 100, 5, Int(7), String("p"))
	probe.TraceNS = 42
	var frame []byte
	var want []*Tuple
	for i := 0; i < 50; i++ {
		l := New(R, uint64(i+1), int64(i), Int(7))
		frame = AppendPair(frame, l, probe)
		want = append(want, l, probe)
	}
	var d Decoder
	got, err := d.AppendPairs(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i, w := range want {
		wantSameTuple(t, got[i], w)
	}
	if got[1] == got[3] {
		t.Fatal("a plain frame's repeated tuple decoded to one shared *Tuple")
	}
}

// TestResultFrameEncodeAllocations pins the joiner's frame encoding: a
// hot-key frame of 512 pairs sharing one probe tuple, through a warm
// FrameEncoder, allocates nothing (make perf-pins).
func TestResultFrameEncodeAllocations(t *testing.T) {
	probe := New(S, 1<<20, 0, Int(7))
	stored := make([]*Tuple, 512)
	for i := range stored {
		stored[i] = New(R, uint64(i+1), int64(i), Int(7))
	}
	var e FrameEncoder
	encode := func() {
		e.Reset()
		for _, l := range stored {
			e.AppendPair(l, probe)
		}
	}
	encode()
	if got := testing.AllocsPerRun(1000, encode); got != 0 {
		t.Errorf("encoding a 512-pair hot-key frame allocates %v per frame, want 0", got)
	}
}

// BenchmarkResultFrame encodes and decodes a hot-key frame: 512 pairs
// sharing one probe tuple.
func BenchmarkResultFrame(b *testing.B) {
	probe := New(S, 1<<20, 0, Int(7))
	stored := make([]*Tuple, 512)
	for i := range stored {
		stored[i] = New(R, uint64(i+1), int64(i), Int(7))
	}
	var e FrameEncoder
	var d Decoder
	dst := make([]*Tuple, 0, 2*len(stored))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for _, l := range stored {
			e.AppendPair(l, probe)
		}
		var err error
		if dst, err = d.AppendPairs(dst[:0], e.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}
