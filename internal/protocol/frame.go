package protocol

import (
	"encoding/binary"
	"fmt"

	"bistream/internal/tuple"
)

// Envelope frames: a router publishes one broker message per
// destination queue per route batch, carrying that queue's run of tuple
// envelopes in stamp order, so a batch of n tuples costs one message
// per queue it addresses instead of one per copy. Punctuations and
// tombstones stay lone envelopes.
//
// Layout (little endian):
//
//	byte    KindFrame
//	uint32  router id, shared by every entry
//	per entry, at least one:
//	    uint64  counter
//	    byte    stream
//	    tuple   the tuple's binary encoding (tuple.AppendBinary), which
//	            is self-delimiting
//
// A one-entry frame is exactly as long as the lone envelope it replaces.

// KindFrame marks a message body that carries a frame of tuple
// envelopes rather than one envelope. It is never an Envelope's Kind:
// AppendEnvelopes expands a frame into KindTuple envelopes.
const KindFrame Kind = KindRetire + 1

// frameHeader is the frame's kind byte and router id.
const frameHeader = 5

// AppendFrameHeader starts a frame from routerID at the end of dst.
func AppendFrameHeader(dst []byte, routerID int32) []byte {
	dst = append(dst, byte(KindFrame))
	return binary.LittleEndian.AppendUint32(dst, uint32(routerID))
}

// AppendFrameEntry appends one tuple envelope's entry to a frame that
// AppendFrameHeader started.
func AppendFrameEntry(dst []byte, counter uint64, stream Stream, t *tuple.Tuple) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, counter)
	dst = append(dst, byte(stream))
	return tuple.AppendBinary(dst, t)
}

// AppendEnvelopes decodes a message body from a store or join queue —
// a frame or a lone envelope — and appends its envelopes to dst in the
// order they were written, drawing tuple allocations from dec (nil
// allocates a decoder for this call). A frame is taken in full or not
// at all: a frame with no entry, or a truncated entry, bad stream byte
// or corrupt tuple anywhere in it, returns dst unchanged with an error,
// and the decoder's slots are handed back.
func AppendEnvelopes(dst []Envelope, body []byte, dec *tuple.Decoder) ([]Envelope, error) {
	if dec == nil {
		dec = new(tuple.Decoder)
	}
	if len(body) == 0 || Kind(body[0]) != KindFrame {
		e, err := DecodeEnvelope(body, dec)
		if err != nil {
			return dst, err
		}
		return append(dst, e), nil
	}
	if len(body) == frameHeader {
		return dst, fmt.Errorf("protocol: frame with no entries")
	}
	if len(body) < frameHeader {
		return dst, fmt.Errorf("protocol: short frame header (%d bytes)", len(body))
	}
	id := int32(binary.LittleEndian.Uint32(body[1:frameHeader]))
	mark, n := dec.Mark(), len(dst)
	var err error
	for data := body[frameHeader:]; len(data) > 0; {
		if len(data) < 9 {
			err = fmt.Errorf("protocol: truncated frame entry (%d bytes)", len(data))
			break
		}
		e := Envelope{Kind: KindTuple, RouterID: id, Counter: binary.LittleEndian.Uint64(data), Stream: Stream(data[8])}
		if e.Stream != StreamStore && e.Stream != StreamJoin {
			err = fmt.Errorf("protocol: bad stream byte %d in frame entry %d", data[8], len(dst)-n)
			break
		}
		if e.Tuple, data, err = dec.UnmarshalPrefix(data[9:]); err != nil {
			break
		}
		dst = append(dst, e)
	}
	if err != nil {
		dec.Rewind(mark)
		clear(dst[n:])
		return dst[:n], err
	}
	return dst, nil
}
