package replica

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"bistream/internal/wire"
)

// FuzzReplFrame throws arbitrary bytes at the replication-frame
// decoder, twice: as one payload, and as a stream of length-prefixed
// frames read the way a follower reads them (wire.FrameReader, topic
// names interned across the stream). Nothing may panic; the interning
// decoder must agree with the plain one on every frame; and anything
// accepted must re-encode — into a reused scratch buffer, as the leader
// encodes — to bytes that decode to the same frame, since every vote
// and every replicated record crosses this codec.
func FuzzReplFrame(f *testing.F) {
	seeds := [][]byte{
		encodeFrame(frame{Op: rJoin, ID: "n1", Term: 3, LSN: 42}),
		encodeFrame(frame{Op: rRecord, LSN: 7, Topic: "q", Payload: []byte{1, 2, 3}}),
		encodeFrame(frame{Op: rVoteReq, ID: "cand", Term: 5, LSN: 77}),
		encodeFrame(frame{Op: rHeart, Term: 4, LSN: 100}),
		{rAck},
		{0xff, 0x00, 0x01},
	}
	var stream []byte // a record, a heartbeat and an ack in one read
	for _, p := range [][]byte{seeds[1], seeds[1], seeds[3], encodeFrame(frame{Op: rAck, LSN: 9})} {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(p)))
		stream = append(stream, p...)
	}
	for _, s := range append(seeds, stream) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scratch := []byte("left over from the previous frame")
		names := make(map[string]string)
		check := func(payload []byte) {
			fr, err := decodeFrame(payload)
			interned, ierr := decodeInterned(payload, names)
			if (err == nil) != (ierr == nil) || !reflect.DeepEqual(fr, interned) {
				t.Fatalf("interning decoder disagrees: (%+v, %v) vs (%+v, %v)", fr, err, interned, ierr)
			}
			if err != nil {
				return
			}
			scratch = appendFrame(scratch[:0], fr)
			back, err := decodeFrame(scratch)
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v", err)
			}
			if back.Op != fr.Op || back.Term != fr.Term || back.LSN != fr.LSN ||
				back.ID != fr.ID || back.Topic != fr.Topic || back.Granted != fr.Granted ||
				string(back.Payload) != string(fr.Payload) {
				t.Fatalf("round trip changed frame: %+v -> %+v", fr, back)
			}
		}
		check(data)
		in := wire.NewFrameReader(bytes.NewReader(data))
		for {
			payload, err := in.Next()
			if err != nil {
				return
			}
			check(payload)
		}
	})
}
