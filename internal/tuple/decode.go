package tuple

import "fmt"

// Decoder is a batch-oriented tuple decoder: it parses the same wire
// format as Unmarshal but allocates the decoded Tuple structs and their
// Value slices out of chunked slabs, so decoding a batch of envelopes
// costs O(1) allocations per chunk instead of two per tuple.
//
// The slabs are an allocation amortizer, not a reuse pool: a Decoder is
// never reset, so decoded tuples remain valid for as long as anything
// references them and are reclaimed by the garbage collector chunk by
// chunk once every tuple in a chunk is dead. That preserves the
// engine-wide invariant that tuples are immutable once decoded — a
// tuple stored in a joiner's window keeps its chunk alive, while a
// transient probe tuple lets its chunk go as soon as the batch drains.
//
// A Decoder is not safe for concurrent use; each consume loop owns one.
type Decoder struct {
	tuples []Tuple // current tuple chunk; grows to cap, then replaced
	values []Value // current value slab; grows to cap, then replaced
	// refs is AppendPairs' scratch list of the open frame's distinct
	// tuples, which back-references index; empty between frames.
	refs []*Tuple
}

// Slab sizing: one tuple chunk holds a consume batch comfortably, and
// the value slab assumes a handful of values per tuple. Oversized
// tuples get a dedicated slab via valueSlab's max().
const (
	decoderTupleChunk = 512
	decoderValueChunk = 2048
)

// Unmarshal decodes one tuple previously produced by Marshal or
// AppendBinary, exactly like the package-level Unmarshal, but allocates
// from the decoder's slabs.
func (d *Decoder) Unmarshal(data []byte) (*Tuple, error) {
	t := d.slot()
	rest, err := parseInto(t, data, d)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	if err != nil {
		// Hand the slot back; the next decode overwrites it in full.
		d.tuples = d.tuples[:len(d.tuples)-1]
		return nil, err
	}
	return t, nil
}

// UnmarshalPrefix decodes one tuple from the front of data, allocating
// from the decoder's slabs, and returns it with the bytes that follow
// it: the tuple encoding is self-delimiting, so a caller can walk a run
// of tuples (or of entries that end in one) without length prefixes. On
// error the slot is handed back and the slabs are unchanged.
func (d *Decoder) UnmarshalPrefix(data []byte) (*Tuple, []byte, error) {
	t := d.slot()
	rest, err := parseInto(t, data, d)
	if err != nil {
		d.tuples = d.tuples[:len(d.tuples)-1]
		return nil, nil, err
	}
	return t, rest, nil
}

// DecoderMark is a decoder's slab position, taken by Mark.
type DecoderMark struct {
	tuples []Tuple
	values []Value
}

// Mark returns the decoder's slab position, for a caller that decodes
// a message of several tuples all or nothing: Rewind(mark) after a
// failure hands back every slot the message used.
func (d *Decoder) Mark() DecoderMark { return DecoderMark{d.tuples, d.values} }

// Rewind returns the decoder to a position Mark took. The tuples
// decoded since then must no longer be referenced: later decodes reuse
// their slots.
func (d *Decoder) Rewind(m DecoderMark) { d.tuples, d.values = m.tuples, m.values }

// slot returns the next tuple slot of the current chunk, starting a new
// chunk when it is full.
func (d *Decoder) slot() *Tuple {
	if len(d.tuples) == cap(d.tuples) {
		d.tuples = make([]Tuple, 0, decoderTupleChunk)
	}
	d.tuples = d.tuples[:len(d.tuples)+1]
	return &d.tuples[len(d.tuples)-1]
}

// valueSlab returns the current value slab, guaranteed to have room for
// n more values without growing — growth mid-tuple would be harmless
// (append copies, earlier tuples keep the old array) but would defeat
// the amortization.
func (d *Decoder) valueSlab(n int) []Value {
	if cap(d.values)-len(d.values) < n {
		size := decoderValueChunk
		if n > size {
			size = n
		}
		d.values = make([]Value, 0, size)
	}
	return d.values
}
