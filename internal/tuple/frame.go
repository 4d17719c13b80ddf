package tuple

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// Result frames: the join results a joiner publishes as one broker
// message, pairs back to back (left tuple, then right tuple). A frame
// carries each distinct tuple once: its first appearance is the plain
// encoding (AppendBinary), and every later appearance in the same frame
// is a back-reference,
//
//	byte    backRef (0x7F)
//	uvarint index into the frame's tuples in first-appearance order
//
// which no tuple encoding can start with (a relation byte is 0 or 1,
// optionally with traceFlag). Back-references never cross frames, so
// every frame decodes on its own, and a frame without any — everything
// AppendPair builds — is the plain encoding frames had before.

// backRef marks a back-reference in a result frame.
const backRef = 0x7F

// AppendPair appends one join result in the plain encoding — the left
// tuple's encoding followed by the right's — to dst. A one-pair frame
// of it is exactly the body UnmarshalPair decodes.
func AppendPair(dst []byte, l, r *Tuple) []byte {
	return AppendBinary(AppendBinary(dst, l), r)
}

// UnmarshalPair decodes two concatenated tuples, the plain encoding of
// one join result (left tuple followed by right tuple): a result frame
// of exactly one pair and no back-reference.
func UnmarshalPair(data []byte) (*Tuple, *Tuple, error) {
	a, rest, err := consume(data)
	if err != nil {
		return nil, nil, err
	}
	b, rest, err := consume(rest)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after pair", ErrCorrupt, len(rest))
	}
	return a, b, nil
}

// FrameEncoder builds one result frame at a time, writing a tuple it
// has already written into the open frame as a back-reference. Tuples
// are told apart by pointer, as the joiner hands them over: a probe
// tuple matching many stored ones is the same *Tuple in each pair.
// The zero value is ready to use; once its buffers have grown to a
// frame's size, appending a pair allocates nothing. A FrameEncoder is
// not safe for concurrent use.
type FrameEncoder struct {
	buf []byte
	// tuples holds the open frame's distinct tuples in first-appearance
	// order: a back-reference's index, and the table's keys. Holding the
	// pointers keeps their addresses from being reused mid-frame.
	tuples []*Tuple
	// slots is an open-addressing table (linear probing, at most half
	// full) from a tuple's address to its index in tuples. A slot whose
	// epoch is not the current one is empty, so Reset clears the table
	// by bumping epoch.
	slots []refSlot
	shift uint   // 64 - log2(len(slots))
	epoch uint32 // nonzero once slots exist; zeroed slots are empty
}

type refSlot struct {
	epoch uint32
	index uint32
}

// AppendPair appends the join result (l, r) to the open frame.
func (e *FrameEncoder) AppendPair(l, r *Tuple) {
	e.appendTuple(l)
	e.appendTuple(r)
}

// Len returns the open frame's length in bytes.
func (e *FrameEncoder) Len() int { return len(e.buf) }

// Bytes returns the open frame. It aliases the encoder's buffer and is
// valid until the next AppendPair or Reset; copy it to keep it.
func (e *FrameEncoder) Bytes() []byte { return e.buf }

// Reset starts a new frame, dropping the open frame's bytes and its
// tuple references.
func (e *FrameEncoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.tuples)
	e.tuples = e.tuples[:0]
	if e.epoch++; e.epoch == 0 { // wrapped: stale slots would look live
		clear(e.slots)
		e.epoch = 1
	}
}

// appendTuple writes t in full at its first appearance in the frame
// and as a back-reference after that.
func (e *FrameEncoder) appendTuple(t *Tuple) {
	if 2*(len(e.tuples)+1) > len(e.slots) {
		e.grow()
	}
	mask := uint64(len(e.slots) - 1)
	for i := e.home(t); ; i = (i + 1) & mask {
		s := &e.slots[i]
		if s.epoch != e.epoch {
			*s = refSlot{epoch: e.epoch, index: uint32(len(e.tuples))}
			e.tuples = append(e.tuples, t)
			e.buf = AppendBinary(e.buf, t)
			return
		}
		if e.tuples[s.index] == t {
			e.buf = binary.AppendUvarint(append(e.buf, backRef), uint64(s.index))
			return
		}
	}
}

// home is t's first slot: its address, Fibonacci-hashed so the high
// bits pick the slot (addresses share their low bits).
func (e *FrameEncoder) home(t *Tuple) uint64 {
	return uint64(uintptr(unsafe.Pointer(t))) * 0x9E3779B97F4A7C15 >> e.shift
}

// grow doubles the table (64 slots to start) and re-enters the open
// frame's tuples.
func (e *FrameEncoder) grow() {
	n := max(64, 2*len(e.slots))
	e.slots = make([]refSlot, n)
	e.shift = uint(65 - bits.Len(uint(n)))
	if e.epoch == 0 {
		e.epoch = 1
	}
	mask := uint64(n - 1)
	for idx, t := range e.tuples {
		i := e.home(t)
		for e.slots[i].epoch == e.epoch {
			i = (i + 1) & mask
		}
		e.slots[i] = refSlot{epoch: e.epoch, index: uint32(idx)}
	}
}

// AppendPairs decodes a result frame and appends its tuples to dst as
// left, right, left, right, ... A back-reference resolves to the same
// *Tuple its first appearance decoded to. The whole frame is parsed
// before AppendPairs returns, so a frame is taken in full or not at
// all: an empty frame, a corrupt or truncated tuple or back-reference
// anywhere in it (including one at the frame's start, or one past the
// tuples decoded so far), or an odd tuple count returns dst unchanged
// with an error, and the slab slots the frame used are handed back.
func (d *Decoder) AppendPairs(dst []*Tuple, frame []byte) ([]*Tuple, error) {
	if len(frame) == 0 {
		return dst, fmt.Errorf("%w: empty result frame", ErrCorrupt)
	}
	mark, n := d.Mark(), len(dst)
	refs := d.refs[:0]
	var err error
	for len(frame) > 0 && err == nil {
		if frame[0] == backRef {
			i, sz := binary.Uvarint(frame[1:])
			switch {
			case sz <= 0:
				err = fmt.Errorf("%w: truncated back-reference", ErrCorrupt)
			case i >= uint64(len(refs)):
				err = fmt.Errorf("%w: back-reference to tuple %d of %d", ErrCorrupt, i, len(refs))
			default:
				dst = append(dst, refs[i])
				frame = frame[1+sz:]
			}
			continue
		}
		var t *Tuple
		if t, frame, err = d.UnmarshalPrefix(frame); err == nil {
			dst = append(dst, t)
			refs = append(refs, t)
		}
	}
	clear(refs)
	d.refs = refs[:0]
	if err == nil && (len(dst)-n)%2 != 0 {
		err = fmt.Errorf("%w: odd tuple count %d in result frame", ErrCorrupt, len(dst)-n)
	}
	if err != nil {
		d.Rewind(mark)
		clear(dst[n:])
		return dst[:n], err
	}
	return dst, nil
}
