package protocol

import (
	"testing"

	"bistream/internal/tuple"
)

// FuzzUnmarshalEnvelope checks the envelope codec never panics and that
// accepted inputs round-trip semantically (varint fields in the tuple
// payload have non-canonical encodings, so byte identity is too
// strict).
func FuzzUnmarshalEnvelope(f *testing.F) {
	f.Add(Envelope{Kind: KindPunctuation, RouterID: 3, Counter: 99}.Marshal())
	f.Add(Envelope{Kind: KindRetire, RouterID: 1, Counter: 1}.Marshal())
	f.Add(Envelope{
		Kind: KindTuple, RouterID: 2, Counter: 7, Stream: StreamJoin,
		Tuple: tuple.New(tuple.S, 5, -3, tuple.String("x"), tuple.Int(9)),
	}.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		env2, err := UnmarshalEnvelope(env.Marshal())
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if env2.Kind != env.Kind || env2.RouterID != env.RouterID ||
			env2.Counter != env.Counter || env2.Stream != env.Stream {
			t.Fatalf("header mismatch: %+v vs %+v", env, env2)
		}
		if (env.Tuple == nil) != (env2.Tuple == nil) {
			t.Fatal("tuple presence mismatch")
		}
		if env.Tuple != nil && env.Tuple.Seq != env2.Tuple.Seq {
			t.Fatal("tuple mismatch")
		}
	})
}

// FuzzEnvelopeFrame checks the body decoder that joiners run on every
// store and join message: it never panics, a rejected body leaves dst
// as it was, and an accepted one — a frame or a lone envelope —
// decodes the same after re-encoding.
func FuzzEnvelopeFrame(f *testing.F) {
	tp := tuple.New(tuple.S, 5, -3, tuple.String("x"), tuple.Int(9))
	frame := AppendFrameEntry(AppendFrameHeader(nil, 2), 7, StreamStore, tp)
	frame = AppendFrameEntry(frame, 8, StreamJoin, tuple.New(tuple.R, 6, 1, tuple.Float(0.5)))
	f.Add(frame)
	f.Add(frame[:len(frame)-3])                              // truncated entry
	f.Add(append(frame[:5:5], 7, 0, 0, 0, 0, 0, 0, 0, 3))    // bad stream byte
	f.Add(append([]byte{byte(KindFrame + 1)}, frame[1:]...)) // unknown kind
	f.Add(AppendFrameHeader(nil, 2))                         // header only
	f.Add(Envelope{Kind: KindTuple, RouterID: 1, Counter: 4, Stream: StreamJoin, Tuple: tp}.Marshal())
	f.Add(Envelope{Kind: KindPunctuation, RouterID: 3, Counter: 99}.Marshal())
	f.Fuzz(func(t *testing.T, body []byte) {
		sentinel := Envelope{Kind: KindPunctuation, RouterID: -1, Counter: 1}
		var dec tuple.Decoder
		envs, err := AppendEnvelopes([]Envelope{sentinel}, body, &dec)
		if err != nil {
			if len(envs) != 1 || envs[0] != sentinel {
				t.Fatalf("rejected body left %d envelopes", len(envs))
			}
			return
		}
		envs = envs[1:]
		var again []byte
		if Kind(body[0]) == KindFrame {
			again = AppendFrameHeader(nil, envs[0].RouterID)
			for _, e := range envs {
				again = AppendFrameEntry(again, e.Counter, e.Stream, e.Tuple)
			}
		} else if len(envs) == 1 {
			again = envs[0].Marshal()
		} else {
			t.Fatalf("a lone envelope decoded to %d", len(envs))
		}
		envs2, err := AppendEnvelopes(nil, again, nil)
		if err != nil {
			t.Fatalf("re-encoded body does not decode: %v", err)
		}
		if len(envs2) != len(envs) {
			t.Fatalf("%d envelopes, %d after re-encoding", len(envs), len(envs2))
		}
		for i, e := range envs {
			e2 := envs2[i]
			if e2.Kind != e.Kind || e2.RouterID != e.RouterID || e2.Counter != e.Counter || e2.Stream != e.Stream ||
				(e.Tuple == nil) != (e2.Tuple == nil) || (e.Tuple != nil && e.Tuple.Seq != e2.Tuple.Seq) {
				t.Fatalf("envelope %d: %+v, %+v after re-encoding", i, e, e2)
			}
		}
	})
}
