package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Binary tuple encoding, used by the TCP wire protocol and by the broker
// when it needs a stable byte representation of a message body.
//
// Layout (little endian):
//
//	byte    relation (0=R, 1=S), high bit set when a trace stamp follows
//	uint64  seq
//	int64   ts
//	int64   trace stamp in Unix nanoseconds (only when flagged)
//	uvarint number of values
//	per value:
//	    byte kind
//	    KindInt:    int64
//	    KindFloat:  float64 bits
//	    KindString: uvarint length + bytes
//
// The encoding is self-describing (no schema needed to decode), compact,
// and allocation-light on the encode path.
//
// A result frame (frame.go) is join-result pairs back to back, each
// tuple in this layout at its first appearance in the frame and as a
// back-reference after that:
//
//	byte    0x7F (never a relation byte)
//	uvarint index into the frame's distinct tuples, first-appearance order

// ErrCorrupt is returned when a byte slice cannot be decoded as a tuple.
var ErrCorrupt = errors.New("tuple: corrupt encoding")

// traceFlag on the relation byte marks a tuple carrying a trace stamp.
const traceFlag = 0x80

// AppendBinary appends the binary encoding of t to dst and returns the
// extended slice.
func AppendBinary(dst []byte, t *Tuple) []byte {
	rel := byte(t.Rel)
	if t.TraceNS != 0 {
		rel |= traceFlag
	}
	dst = append(dst, rel)
	dst = binary.LittleEndian.AppendUint64(dst, t.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.TS))
	if t.TraceNS != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.TraceNS))
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Values)))
	for _, v := range t.Values {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindInt:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// Marshal returns the binary encoding of t in one allocation.
func Marshal(t *Tuple) []byte {
	return AppendBinary(make([]byte, 0, EncodedLen(t)), t)
}

// EncodedLen returns the exact length of t's binary encoding, so an
// encoder can size its buffer once.
func EncodedLen(t *Tuple) int {
	n := 17 + uvarintLen(uint64(len(t.Values)))
	if t.TraceNS != 0 {
		n += 8
	}
	for _, v := range t.Values {
		n++
		switch v.kind {
		case KindInt, KindFloat:
			n += 8
		case KindString:
			n += uvarintLen(uint64(len(v.s))) + len(v.s)
		}
	}
	return n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Unmarshal decodes a tuple previously produced by Marshal/AppendBinary.
func Unmarshal(data []byte) (*Tuple, error) {
	t, rest, err := consume(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return t, nil
}

func consume(data []byte) (*Tuple, []byte, error) {
	t := new(Tuple)
	rest, err := parseInto(t, data, nil)
	if err != nil {
		return nil, nil, err
	}
	return t, rest, nil
}

// parseInto decodes one tuple from the front of data into t, returning
// the unconsumed remainder. With a non-nil Decoder the value slice is
// carved out of the decoder's current slab instead of freshly
// allocated; on error the slab is left unchanged.
func parseInto(t *Tuple, data []byte, d *Decoder) ([]byte, error) {
	if len(data) < 17 {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	traced := data[0]&traceFlag != 0
	rel := Relation(data[0] &^ traceFlag)
	if rel != R && rel != S {
		return nil, fmt.Errorf("%w: bad relation byte %d", ErrCorrupt, data[0])
	}
	seq := binary.LittleEndian.Uint64(data[1:9])
	ts := int64(binary.LittleEndian.Uint64(data[9:17]))
	data = data[17:]
	var traceNS int64
	if traced {
		if len(data) < 8 {
			return nil, fmt.Errorf("%w: truncated trace stamp", ErrCorrupt)
		}
		traceNS = int64(binary.LittleEndian.Uint64(data[:8]))
		if traceNS == 0 {
			// A flagged-but-zero stamp would not round-trip (the encoder
			// only flags nonzero stamps); reject it as non-canonical.
			return nil, fmt.Errorf("%w: zero trace stamp", ErrCorrupt)
		}
		data = data[8:]
	}
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad value count", ErrCorrupt)
	}
	data = data[sz:]
	if n > uint64(len(data)) { // each value needs at least 1 byte
		return nil, fmt.Errorf("%w: value count %d exceeds payload", ErrCorrupt, n)
	}
	var values []Value
	base := 0
	if d != nil {
		values = d.valueSlab(int(n))
		base = len(values)
	} else {
		values = make([]Value, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		if len(data) < 1 {
			return nil, fmt.Errorf("%w: truncated value", ErrCorrupt)
		}
		kind := Kind(data[0])
		data = data[1:]
		switch kind {
		case KindInt:
			if len(data) < 8 {
				return nil, fmt.Errorf("%w: truncated int", ErrCorrupt)
			}
			values = append(values, Int(int64(binary.LittleEndian.Uint64(data))))
			data = data[8:]
		case KindFloat:
			if len(data) < 8 {
				return nil, fmt.Errorf("%w: truncated float", ErrCorrupt)
			}
			values = append(values, Float(math.Float64frombits(binary.LittleEndian.Uint64(data))))
			data = data[8:]
		case KindString:
			l, sz := binary.Uvarint(data)
			if sz <= 0 || l > uint64(len(data)-sz) {
				return nil, fmt.Errorf("%w: truncated string", ErrCorrupt)
			}
			data = data[sz:]
			values = append(values, String(string(data[:l])))
			data = data[l:]
		default:
			return nil, fmt.Errorf("%w: unknown value kind %d", ErrCorrupt, kind)
		}
	}
	if d != nil {
		d.values = values
		// Cap the tuple's view at its own values so a later append through
		// the tuple (which immutability forbids anyway) could never step on
		// the next tuple's slab region.
		values = values[base:len(values):len(values)]
	}
	*t = Tuple{Rel: rel, Seq: seq, TS: ts, Values: values, TraceNS: traceNS}
	return data, nil
}
