// Package wire exposes the in-process broker over TCP with a compact
// length-prefixed binary protocol, in the role AMQP's wire level plays
// for RabbitMQ: cmd/brokerd serves a broker.Broker, and Client
// implements broker.Client against a remote brokerd, so the router and
// joiner services run unchanged as separate OS processes or containers.
//
// Framing: every frame is a 4-byte big-endian payload length followed by
// the payload; the first payload byte is the opcode. Strings and byte
// slices are uvarint-length-prefixed. Requests carry a client-assigned
// correlation id echoed by the matching reply. Deliveries are
// server-initiated frames carrying the server-side consumer id.
//
// Every fixed cost of a hop is paid per batch already at hand, never per
// message and never after a wait: publications and acknowledgements
// travel N to a frame (opPublishBatch, opAckBatch; a single Publish or
// Ack is the one-element batch), frames travel as many to a socket write
// as were queued when the write was issued (FrameWriter), and the server
// answers publishes out of line, so that one quorum wait covers every
// publish journaled before it (see session.complete).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"bistream/internal/broker"
)

// Opcodes. The numbering only needs to be stable, not meaningful; new
// opcodes are appended so earlier values keep theirs.
const (
	opDeclareExchange byte = iota + 1
	opDeclareQueue
	opDeleteQueue
	opBind
	opPublish // retired (one message per frame); the number stays reserved
	opConsume
	opAck // retired (one tag per frame); the number stays reserved
	opNack
	opCancel
	opQueueStats

	opReply      // generic ok/error reply: reqID, errString
	opConsumeOK  // reqID, consumerID
	opStatsReply // reqID, errString, stats
	opDeliver    // consumerID, delivery
	opConsumerEOF

	// opPing is a liveness probe: the server echoes an empty opReply.
	// The client's heartbeat uses it to detect half-open TCP connections
	// that deliver neither frames nor errors.
	opPing

	opPublishBatch // reqID, n, n × (exchange, key, headers, body)
	opAckBatch     // reqID, consumerID, n, n × tag
	opPublishReply // reqID, published prefix, errString
)

// --- encoding helpers ---

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

// reader decodes fields sequentially and remembers the first error, so
// call sites stay linear.
type reader struct {
	buf   []byte
	err   error
	names map[string]string // the connection's intern table; see name
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s", what)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail("byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) bool() bool { return r.byte() != 0 }

// field returns the next length-prefixed field without copying it.
func (r *reader) field(what string) []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail(what)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) string() string { return string(r.field("string")) }

func (r *reader) bytes() []byte {
	if b := r.field("bytes"); b != nil {
		return append([]byte(nil), b...)
	}
	return nil
}

// maxNames bounds a stream's table of interned names.
const maxNames = 1024

// Intern returns b as a string through names, a stream's table of the
// names it has seen: exchange, queue, topic and routing-key names are
// drawn from a small vocabulary and repeat on every message, so a repeat
// costs a map lookup and no allocation. The table stops growing at
// maxNames entries; a nil table interns nothing.
func Intern(names map[string]string, b []byte) string {
	if s, ok := names[string(b)]; ok { // the conversion does not allocate
		return s
	}
	s := string(b)
	if names != nil && len(names) < maxNames {
		names[s] = s
	}
	return s
}

// name decodes a string through the connection's intern table.
func (r *reader) name() string { return Intern(r.names, r.field("string")) }

func (r *reader) headers() map[string]string {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)/2) { // a pair is two length bytes at least
		r.fail("headers")
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

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// encodeStats flattens QueueStats; floats travel as IEEE bits.
func encodeStats(dst []byte, st broker.QueueStats) []byte {
	dst = appendString(dst, st.Name)
	dst = binary.AppendUvarint(dst, uint64(st.Ready))
	dst = binary.AppendUvarint(dst, uint64(st.Unacked))
	dst = binary.AppendUvarint(dst, uint64(st.Consumers))
	dst = binary.AppendUvarint(dst, uint64(st.Published))
	dst = binary.AppendUvarint(dst, uint64(st.Delivered))
	dst = binary.AppendUvarint(dst, uint64(st.Acked))
	dst = binary.AppendUvarint(dst, uint64(st.Redelivered))
	dst = binary.AppendUvarint(dst, uint64(st.DeadLettered))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.InRate))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.OutRate))
	return dst
}

func (r *reader) stats() broker.QueueStats {
	var st broker.QueueStats
	st.Name = r.string()
	st.Ready = int(r.uvarint())
	st.Unacked = int(r.uvarint())
	st.Consumers = int(r.uvarint())
	st.Published = int64(r.uvarint())
	st.Delivered = int64(r.uvarint())
	st.Acked = int64(r.uvarint())
	st.Redelivered = int64(r.uvarint())
	st.DeadLettered = int64(r.uvarint())
	st.InRate = math.Float64frombits(r.uint64())
	st.OutRate = math.Float64frombits(r.uint64())
	return st
}

// minPublication is the encoded size of an empty publication (four
// zero-length fields): a frame of n bytes cannot hold more than
// n/minPublication of them, which bounds the decoder's allocation by
// the bytes actually received.
const minPublication = 4

func appendPublications(dst []byte, pubs []broker.Publication) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pubs)))
	for i := range pubs {
		p := &pubs[i]
		dst = appendString(dst, p.Exchange)
		dst = appendString(dst, p.RoutingKey)
		dst = appendHeaders(dst, p.Headers)
		dst = appendBytes(dst, p.Body)
	}
	return dst
}

func (r *reader) publications() []broker.Publication {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)/minPublication) {
		r.fail("publication batch")
		return nil
	}
	pubs := make([]broker.Publication, n)
	for i := range pubs {
		pubs[i] = broker.Publication{
			Exchange:   r.name(),
			RoutingKey: r.name(),
			Headers:    r.headers(),
			Body:       r.bytes(),
		}
	}
	if r.err != nil {
		return nil
	}
	return pubs
}

func appendTags(dst []byte, tags []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tags)))
	for _, tag := range tags {
		dst = binary.LittleEndian.AppendUint64(dst, tag)
	}
	return dst
}

func (r *reader) tags() []uint64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)/8) {
		r.fail("tag batch")
		return nil
	}
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = r.uint64()
	}
	return tags
}
