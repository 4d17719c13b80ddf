package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"bistream/internal/dedup"
	"bistream/internal/index"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
)

// Binary checkpoint encoding. Two blob kinds, both little endian and
// both ending in a CRC-32C of everything before it, so recovery can
// reject torn or bit-rotted blobs without trusting their contents:
//
//	segment  "BSG2" | id u64 | origin u32 | sealed byte | minTS u64 | maxTS u64 |
//	         uvarint count | count × (uvarint len | tuple bytes) | crc u32
//	manifest "BMF2" | rel byte | joiner u32 | epoch u64 |
//	         uvarint nrefs  | nrefs  × (uvarint len | key | id u64 | origin u32 |
//	                                    sealed byte | crc u32 | len u32) |
//	         uvarint nfront | nfront × (router u32 | source u32 | counter u64) |
//	         uvarint npend  | npend  × (uvarint len | envelope bytes) |
//	         uvarint cap | suppressed u64 |
//	         uvarint ncur | ncur × 16 bytes | uvarint nprev | nprev × 16 bytes |
//	         uvarint nretry | nretry × (uvarint len | body) | crc u32
//
// The manifest additionally records each referenced segment blob's CRC
// and length, so a manifest that survived a crash can vouch for (or
// condemn) segment blobs written in earlier rounds.

// ErrCorrupt is returned when a blob cannot be decoded as a checkpoint
// segment or manifest.
var ErrCorrupt = errors.New("checkpoint: corrupt encoding")

var (
	segMagic      = []byte("BSG2")
	manifestMagic = []byte("BMF2")
	crcTable      = crc32.MakeTable(crc32.Castagnoli)
)

// segRef is a manifest's pointer to one segment blob. Origin joins ID
// in the segment's identity: a grafted (migrated-in) segment keeps its
// donor's id, which may collide with a local one.
type segRef struct {
	Key    string
	ID     uint64
	Origin int32
	Sealed bool
	CRC    uint32
	Len    uint32
}

// manifest is the decoded root blob of one checkpoint epoch.
type manifest struct {
	Rel       tuple.Relation
	JoinerID  int32
	Epoch     uint64
	Refs      []segRef
	Frontiers []protocol.Frontier
	Pending   []protocol.Envelope
	Dedup     dedup.State
	Retry     [][]byte
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// EncodeSegment returns the blob a checkpoint store holds for one
// segment, for callers that measure checkpoint size without a store.
func EncodeSegment(seg index.Segment) []byte { return encodeSegment(seg) }

// encodeSegment serializes one segment (metadata plus its tuples).
func encodeSegment(seg index.Segment) []byte {
	buf := make([]byte, 0, 32+len(seg.Tuples)*48)
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seg.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(seg.Origin))
	buf = append(buf, boolByte(seg.Sealed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seg.MinTS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seg.MaxTS))
	buf = binary.AppendUvarint(buf, uint64(len(seg.Tuples)))
	for _, t := range seg.Tuples {
		tb := tuple.Marshal(t)
		buf = binary.AppendUvarint(buf, uint64(len(tb)))
		buf = append(buf, tb...)
	}
	return appendCRC(buf)
}

// decodeSegment parses and CRC-checks a segment blob.
func decodeSegment(blob []byte) (index.Segment, error) {
	body, err := checkCRC(blob, segMagic)
	if err != nil {
		return index.Segment{}, err
	}
	r := &reader{b: body}
	seg := index.Segment{
		ID:     r.u64(),
		Origin: int32(r.u32()),
		Sealed: r.u8() != 0,
		MinTS:  int64(r.u64()),
		MaxTS:  int64(r.u64()),
	}
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) { // every tuple costs ≥1 byte
		r.fail("tuple count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		tb := r.lenBytes()
		if r.err != nil {
			break
		}
		t, err := tuple.Unmarshal(tb)
		if err != nil {
			return index.Segment{}, fmt.Errorf("%w: segment tuple: %v", ErrCorrupt, err)
		}
		seg.Tuples = append(seg.Tuples, t)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return index.Segment{}, r.err
	}
	return seg, nil
}

// encodeManifest serializes the checkpoint root blob.
func encodeManifest(m *manifest) []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, manifestMagic...)
	buf = append(buf, byte(m.Rel))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.JoinerID))
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(m.Refs)))
	for _, ref := range m.Refs {
		buf = binary.AppendUvarint(buf, uint64(len(ref.Key)))
		buf = append(buf, ref.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, ref.ID)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ref.Origin))
		buf = append(buf, boolByte(ref.Sealed))
		buf = binary.LittleEndian.AppendUint32(buf, ref.CRC)
		buf = binary.LittleEndian.AppendUint32(buf, ref.Len)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Frontiers)))
	for _, f := range m.Frontiers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Router))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Source))
		buf = binary.LittleEndian.AppendUint64(buf, f.Counter)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Pending)))
	for _, e := range m.Pending {
		eb := e.Marshal()
		buf = binary.AppendUvarint(buf, uint64(len(eb)))
		buf = append(buf, eb...)
	}
	buf = binary.AppendUvarint(buf, uint64(m.Dedup.Cap))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Dedup.Suppressed))
	for _, keys := range [2][]dedup.Key{m.Dedup.Cur, m.Dedup.Prev} {
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = binary.LittleEndian.AppendUint64(buf, k[0])
			buf = binary.LittleEndian.AppendUint64(buf, k[1])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Retry)))
	for _, body := range m.Retry {
		buf = binary.AppendUvarint(buf, uint64(len(body)))
		buf = append(buf, body...)
	}
	return appendCRC(buf)
}

// decodeManifest parses and CRC-checks a manifest blob.
func decodeManifest(blob []byte) (*manifest, error) {
	body, err := checkCRC(blob, manifestMagic)
	if err != nil {
		return nil, err
	}
	r := &reader{b: body}
	m := &manifest{}
	relByte := r.u8()
	m.JoinerID = int32(r.u32())
	m.Epoch = r.u64()
	if r.err == nil {
		m.Rel = tuple.Relation(relByte)
		if m.Rel != tuple.R && m.Rel != tuple.S {
			r.fail("bad relation byte %d", relByte)
		}
	}
	nrefs := r.uvarint()
	r.boundCount(nrefs, 22) // min ref size: 1-byte key len + 21 fixed
	for i := uint64(0); i < nrefs && r.err == nil; i++ {
		ref := segRef{
			Key:    string(r.lenBytes()),
			ID:     r.u64(),
			Origin: int32(r.u32()),
			Sealed: r.u8() != 0,
			CRC:    r.u32(),
			Len:    r.u32(),
		}
		if r.err == nil {
			m.Refs = append(m.Refs, ref)
		}
	}
	nfront := r.uvarint()
	r.boundCount(nfront, 16)
	for i := uint64(0); i < nfront && r.err == nil; i++ {
		f := protocol.Frontier{
			Router:  int32(r.u32()),
			Source:  protocol.Source(r.u32()),
			Counter: r.u64(),
		}
		if r.err == nil {
			m.Frontiers = append(m.Frontiers, f)
		}
	}
	npend := r.uvarint()
	r.boundCount(npend, 2)
	for i := uint64(0); i < npend && r.err == nil; i++ {
		eb := r.lenBytes()
		if r.err != nil {
			break
		}
		e, err := protocol.UnmarshalEnvelope(eb)
		if err != nil {
			return nil, fmt.Errorf("%w: pending envelope: %v", ErrCorrupt, err)
		}
		m.Pending = append(m.Pending, e)
	}
	m.Dedup.Cap = int(r.uvarint())
	m.Dedup.Suppressed = int64(r.u64())
	for gen := 0; gen < 2 && r.err == nil; gen++ {
		nkeys := r.uvarint()
		r.boundCount(nkeys, 16)
		keys := make([]dedup.Key, 0, min(int(nkeys), 1<<16))
		for i := uint64(0); i < nkeys && r.err == nil; i++ {
			keys = append(keys, dedup.Key{r.u64(), r.u64()})
		}
		if r.err != nil {
			break
		}
		if gen == 0 {
			m.Dedup.Cur = keys
		} else {
			m.Dedup.Prev = keys
		}
	}
	nretry := r.uvarint()
	r.boundCount(nretry, 1)
	for i := uint64(0); i < nretry && r.err == nil; i++ {
		body := r.lenBytes()
		if r.err == nil {
			m.Retry = append(m.Retry, append([]byte(nil), body...))
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// appendCRC appends the CRC-32C of buf to buf.
func appendCRC(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// checkCRC validates magic and trailing CRC, returning the body between
// them.
func checkCRC(blob, magic []byte) ([]byte, error) {
	if len(blob) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d-byte blob", ErrCorrupt, len(blob))
	}
	if string(blob[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, blob[:len(magic)])
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return body[len(magic):], nil
}

// reader is a little-endian cursor with sticky error handling, so
// decoders read fields linearly and check r.err once per record.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// boundCount rejects element counts that could not fit in the remaining
// bytes (each element costing at least minSize), so corrupt counts fail
// fast instead of driving huge allocations.
func (r *reader) boundCount(n uint64, minSize int) {
	if r.err == nil && n > uint64(len(r.b))/uint64(minSize)+1 {
		r.fail("count %d exceeds payload", n)
	}
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(r.b)
	if sz <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[sz:]
	return v
}

// lenBytes reads a uvarint length followed by that many bytes (a view
// into the blob; callers copy if they retain it past decode).
func (r *reader) lenBytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("length %d exceeds payload", n)
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}
