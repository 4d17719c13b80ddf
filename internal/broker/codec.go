package broker

import "encoding/binary"

// Small binary helpers shared by the journal. (The wire package keeps
// its own copies; the two formats evolve independently.)

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendHeaders(dst []byte, h map[string]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(h)))
	for k, v := range h {
		dst = appendString(dst, k)
		dst = appendString(dst, v)
	}
	return dst
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// reader decodes fields sequentially, remembering the first error.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errCorruptRecord
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil || len(r.buf) < 1 {
		r.fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) string() string { return string(r.field()) }

// field returns the next length-prefixed field without copying it.
func (r *reader) field() []byte {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	b := append([]byte(nil), r.buf[:n]...)
	r.buf = r.buf[n:]
	return b
}

func (r *reader) headers() map[string]string {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	h := make(map[string]string, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.string()
		v := r.string()
		h[k] = v
	}
	return h
}
