package replica

import (
	"encoding/binary"
	"fmt"

	"bistream/internal/wire"
)

// The replication protocol rides on the same length-prefixed framing as
// the client wire protocol (wire.ReadFrame/WriteFrame) but on its own
// listener with its own opcode space, starting at 64 so a frame that
// strays onto the wrong port is recognizably foreign.
//
// Conversations:
//
//	follower → leader:  rJoin(id, term, lastLSN)
//	leader   → follower: rWelcome(term, leaderID)          — wipe and resync
//	                     rRecord(lsn, topic, payload) ...  — snapshot, then live
//	                     rSnapEnd(lsn)                     — snapshot boundary
//	                     rHeart(term, lastLSN)             — lease refresh
//	follower → leader:  rAck(lsn)                          — high-water mark: everything up to
//	                                                         lsn is flushed; one per drained read
//	anyone   → anyone:  rNotLeader(term)                   — refusal, try elsewhere
//	candidate → peer:   rVoteReq(term, candidateID, lastLSN)
//	peer → candidate:   rVoteResp(term, granted)
const (
	rJoin byte = iota + 64
	rWelcome
	rNotLeader
	rRecord
	rSnapEnd
	rHeart
	rAck
	rVoteReq
	rVoteResp
)

// frame is the decoded union of every replication message. Only the
// fields meaningful for Op are set; the rest stay zero.
type frame struct {
	Op      byte
	Term    uint64
	LSN     uint64 // lastLSN in rJoin/rVoteReq/rHeart, record LSN in rRecord/rSnapEnd, flushed high-water in rAck
	ID      string // node id: sender in rJoin, leader in rWelcome, candidate in rVoteReq
	Topic   string // rRecord only; "" = topology record
	Payload []byte // rRecord only
	Granted bool   // rVoteResp only
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// encodeFrame serializes f into a fresh wire payload (without the
// length prefix, which the wire package's frame writers add).
func encodeFrame(f frame) []byte { return appendFrame(nil, f) }

// appendFrame appends f's wire payload to out.
func appendFrame(out []byte, f frame) []byte {
	out = append(out, f.Op)
	switch f.Op {
	case rJoin, rVoteReq:
		out = appendStr(out, f.ID)
		out = binary.AppendUvarint(out, f.Term)
		out = binary.AppendUvarint(out, f.LSN)
	case rWelcome:
		out = binary.AppendUvarint(out, f.Term)
		out = appendStr(out, f.ID)
	case rNotLeader:
		out = binary.AppendUvarint(out, f.Term)
	case rRecord:
		out = binary.AppendUvarint(out, f.LSN)
		out = appendStr(out, f.Topic)
		out = appendBlob(out, f.Payload)
	case rSnapEnd, rAck:
		out = binary.AppendUvarint(out, f.LSN)
	case rHeart:
		out = binary.AppendUvarint(out, f.Term)
		out = binary.AppendUvarint(out, f.LSN)
	case rVoteResp:
		out = binary.AppendUvarint(out, f.Term)
		if f.Granted {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// fieldReader decodes sequentially, remembering the first error.
type fieldReader struct {
	buf   []byte
	err   error
	names map[string]string // optional intern table for str
}

func (r *fieldReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("replica: truncated %s", what)
	}
}

func (r *fieldReader) uvarint() uint64 {
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

func (r *fieldReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail("string")
		return ""
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return wire.Intern(r.names, b)
}

func (r *fieldReader) blob() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("bytes")
		return nil
	}
	b := append([]byte(nil), r.buf[:n]...)
	r.buf = r.buf[n:]
	return b
}

func (r *fieldReader) boolean() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < 1 {
		r.fail("bool")
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b != 0
}

// decodeFrame parses a replication payload. It is total: any input
// either yields a well-formed frame or an error, never a panic — the
// fuzz target FuzzReplFrame holds it to that.
func decodeFrame(buf []byte) (frame, error) { return decodeInterned(buf, nil) }

// decodeInterned is decodeFrame for a stream of frames: the few topic
// names a record stream repeats are decoded through names, once each.
func decodeInterned(buf []byte, names map[string]string) (frame, error) {
	if len(buf) == 0 {
		return frame{}, fmt.Errorf("replica: empty frame")
	}
	f := frame{Op: buf[0]}
	r := &fieldReader{buf: buf[1:], names: names}
	switch f.Op {
	case rJoin, rVoteReq:
		f.ID = r.str()
		f.Term = r.uvarint()
		f.LSN = r.uvarint()
	case rWelcome:
		f.Term = r.uvarint()
		f.ID = r.str()
	case rNotLeader:
		f.Term = r.uvarint()
	case rRecord:
		f.LSN = r.uvarint()
		f.Topic = r.str()
		f.Payload = r.blob()
	case rSnapEnd, rAck:
		f.LSN = r.uvarint()
	case rHeart:
		f.Term = r.uvarint()
		f.LSN = r.uvarint()
	case rVoteResp:
		f.Term = r.uvarint()
		f.Granted = r.boolean()
	default:
		return frame{}, fmt.Errorf("replica: unknown opcode %d", f.Op)
	}
	if r.err != nil {
		return frame{}, r.err
	}
	return f, nil
}
