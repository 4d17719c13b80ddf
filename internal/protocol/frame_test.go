package protocol

import (
	"testing"
	"unsafe"

	"bistream/internal/tuple"
)

// frameOf encodes envs, which must all be tuple envelopes, as one frame
// from router.
func frameOf(router int32, envs ...Envelope) []byte {
	buf := AppendFrameHeader(nil, router)
	for _, e := range envs {
		buf = AppendFrameEntry(buf, e.Counter, e.Stream, e.Tuple)
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	in := []Envelope{tupEnv(2, 10, StreamStore), tupEnv(2, 11, StreamJoin), tupEnv(2, 13, StreamStore)}
	sentinel := punct(9, 1)
	var dec tuple.Decoder
	out, err := AppendEnvelopes([]Envelope{sentinel}, frameOf(2, in...), &dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1+len(in) || out[0] != sentinel {
		t.Fatalf("decoded %d envelopes after %+v", len(out), out[0])
	}
	for i, e := range out[1:] {
		w := in[i]
		if e.Kind != KindTuple || e.RouterID != 2 || e.Counter != w.Counter || e.Stream != w.Stream ||
			e.Tuple.Seq != w.Tuple.Seq || !e.Tuple.Value(0).Equal(w.Tuple.Value(0)) {
			t.Errorf("entry %d = %+v, want %+v", i, e, w)
		}
	}
	// A one-entry frame is as long as the lone envelope it replaces, and
	// a lone envelope still decodes through the same call.
	lone := in[0].Marshal()
	if got := len(frameOf(2, in[0])); got != len(lone) {
		t.Errorf("one-entry frame is %d bytes, its lone envelope %d", got, len(lone))
	}
	out, err = AppendEnvelopes(nil, lone, nil)
	if err != nil || len(out) != 1 || out[0].Counter != 10 || out[0].Tuple.Seq != 10 {
		t.Fatalf("lone envelope decoded to %+v, %v", out, err)
	}
}

// TestFrameDecodeIsAllOrNothing: a frame corrupt anywhere — here in its
// last entry — leaves dst as it was and hands the decoder's slots back,
// so the next frame's tuples take the slots the corrupt one used.
func TestFrameDecodeIsAllOrNothing(t *testing.T) {
	good := frameOf(1, tupEnv(1, 1, StreamStore), tupEnv(1, 2, StreamStore))
	corrupt := frameOf(1, tupEnv(1, 3, StreamStore), tupEnv(1, 4, StreamJoin))
	corrupt[len(corrupt)-9] = 0xEE // the last value's kind byte
	var dec tuple.Decoder
	dst, err := AppendEnvelopes(nil, good, &dec)
	if err != nil {
		t.Fatal(err)
	}
	last := dst[1].Tuple
	if dst, err = AppendEnvelopes(dst, corrupt, &dec); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if len(dst) != 2 || dst[:cap(dst)][2].Tuple != nil {
		t.Fatalf("corrupt frame left %d envelopes behind", len(dst)-2)
	}
	if dst, err = AppendEnvelopes(dst, good, &dec); err != nil {
		t.Fatal(err)
	}
	if gap := uintptr(unsafe.Pointer(dst[2].Tuple)) - uintptr(unsafe.Pointer(last)); gap != unsafe.Sizeof(tuple.Tuple{}) {
		t.Errorf("the next frame's first tuple is %d bytes past the last good one, want the very next slot", gap)
	}
}

func TestFrameCorrupt(t *testing.T) {
	good := frameOf(1, tupEnv(1, 1, StreamStore))
	badStream := append([]byte(nil), good...)
	badStream[5+8] = 9
	for name, body := range map[string][]byte{
		"header only":     AppendFrameHeader(nil, 1),
		"short header":    good[:3],
		"truncated entry": good[:5+6],
		"truncated tuple": good[:len(good)-1],
		"bad stream":      badStream,
		"trailing byte":   append(append([]byte(nil), good...), 0),
		"unknown kind":    append([]byte{byte(KindFrame + 1)}, good[1:]...),
	} {
		if out, err := AppendEnvelopes(nil, body, nil); err == nil {
			t.Errorf("%s: accepted as %+v", name, out)
		}
	}
}

var sinkEnvs []Envelope

// TestFrameDecodeAllocations pins the joiner's decode of a 64-envelope
// frame through a warm decoder at no more than one allocation: the
// tuples come out of the decoder's slabs, the envelopes go into a
// reused slice.
func TestFrameDecodeAllocations(t *testing.T) {
	envs := make([]Envelope, 64)
	for i := range envs {
		envs[i] = tupEnv(0, uint64(i+1), Stream(1+i%2))
	}
	body := frameOf(0, envs...)
	var dec tuple.Decoder
	dst := make([]Envelope, 0, len(envs))
	decode := func() {
		var err error
		if sinkEnvs, err = AppendEnvelopes(dst, body, &dec); err != nil || len(sinkEnvs) != len(envs) {
			t.Fatalf("decoded %d envelopes: %v", len(sinkEnvs), err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(200, decode); got > 1 {
		t.Errorf("decoding a 64-envelope frame allocates %v times, want at most 1", got)
	}
}
