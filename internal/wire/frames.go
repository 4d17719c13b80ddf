package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"bistream/internal/metrics"
)

// maxFrame bounds a single frame; tuples are small, so anything larger
// indicates a corrupt stream.
const maxFrame = 16 << 20

// coalesceLimit is how many bytes of frames a FrameWriter gathers before
// it writes without being asked to, and the size of a FrameReader's
// buffer: one socket read or write moves up to this much.
const coalesceLimit = 64 << 10

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// ReadFrame reads one length-prefixed frame straight from r, consuming
// not a byte more: for one-shot exchanges (leader probe, vote request)
// on a connection that a FrameReader may take over afterwards.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFrame writes one frame with a single Write, for the same
// one-shot exchanges; streams of frames go through a FrameWriter.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := make([]byte, 0, 4+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	_, err := w.Write(append(buf, payload...))
	return err
}

func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, fmt.Errorf("wire: empty frame")
	}
	if n > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return int(n), nil
}

// FrameReader reads a stream of frames through a buffer, so that one
// socket read serves every frame it happened to carry.
type FrameReader struct {
	br   *bufio.Reader
	held int // bytes of the frame last returned, still in br's buffer
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, coalesceLimit)}
}

// Next returns the next frame's payload. The slice is only valid until
// the following call to Next: decoders copy what they keep.
func (fr *FrameReader) Next() ([]byte, error) {
	fr.br.Discard(fr.held)
	fr.held = 0
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	if 4+n > fr.br.Size() {
		// Larger than the buffer: this one frame gets its own allocation.
		fr.br.Discard(4)
		buf := make([]byte, n)
		if _, err := io.ReadFull(fr.br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	frame, err := fr.br.Peek(4 + n)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	fr.held = 4 + n
	return frame[4:], nil
}

// Drained reports whether the buffer holds nothing beyond the frame last
// returned, i.e. whether the next call to Next will wait for the socket.
// It is the "nothing more queued" signal on which the reading side
// flushes its replies and acknowledgements.
func (fr *FrameReader) Drained() bool { return fr.br.Buffered() <= fr.held }

// FrameWriter coalesces the frames of any number of producers into as
// few socket writes as their timing allows, without ever delaying one:
// producers append whole frames to a buffer under a mutex, and whoever
// asks for a flush while no write is in progress becomes the flusher —
// it swaps the buffer out and issues one Write per swap until the
// buffer stays empty. Frames appended while that Write is in the kernel
// ride on the next one. There is no timer: a producer flushes when it
// has nothing more queued, and a lone producer's frame goes out on its
// own Flush call exactly as an unbuffered write would.
type FrameWriter struct {
	conn    net.Conn
	timeout time.Duration // write deadline per socket write; 0 for none
	expires time.Time     // the deadline currently set; flusher only
	frames  *metrics.Counter
	writes  *metrics.Counter

	mu       sync.Mutex
	taken    *sync.Cond // the flusher took the buffer, or gave up
	buf      []byte     // whole frames no Write has been issued for
	spare    []byte
	flushing bool
	err      error // sticky: the stream is cut mid-frame
}

// NewFrameWriter wraps conn. A positive timeout bounds every socket
// write, so that a wedged peer cannot hang the writers forever. reg, if
// not nil, receives wire.frames_out and wire.writes_out, whose ratio is
// the coalescing factor.
func NewFrameWriter(conn net.Conn, timeout time.Duration, reg *metrics.Registry) *FrameWriter {
	fw := &FrameWriter{conn: conn, timeout: timeout}
	fw.taken = sync.NewCond(&fw.mu)
	if reg != nil {
		fw.frames = reg.Counter("wire.frames_out")
		fw.writes = reg.Counter("wire.writes_out")
	} else {
		fw.frames, fw.writes = &metrics.Counter{}, &metrics.Counter{}
	}
	return fw
}

// Append queues one frame. It writes only when coalesceLimit bytes have
// gathered, and waits only while that many are queued behind a Write in
// progress — a slow socket backpressures its producers.
func (fw *FrameWriter) Append(payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for fw.flushing && len(fw.buf) >= coalesceLimit && fw.err == nil {
		fw.taken.Wait()
	}
	if fw.err != nil {
		return fw.err
	}
	fw.buf = binary.BigEndian.AppendUint32(fw.buf, uint32(len(payload)))
	fw.buf = append(fw.buf, payload...)
	fw.frames.Inc()
	if len(fw.buf) >= coalesceLimit {
		return fw.flushLocked()
	}
	return nil
}

// Flush writes what is queued, unless a Write is in progress: then that
// flusher's next Write carries it, and Flush returns without waiting. A
// write error closes the connection (the stream is cut mid-frame) and
// fails every later call.
func (fw *FrameWriter) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.flushLocked()
}

// Send is Append then Flush.
func (fw *FrameWriter) Send(payload []byte) error {
	if err := fw.Append(payload); err != nil {
		return err
	}
	return fw.Flush()
}

func (fw *FrameWriter) flushLocked() error {
	if fw.flushing {
		return fw.err
	}
	fw.flushing = true
	for len(fw.buf) > 0 && fw.err == nil {
		out := fw.buf
		fw.buf, fw.spare = fw.spare[:0], nil
		fw.taken.Broadcast()
		fw.mu.Unlock()
		if fw.timeout > 0 {
			// Re-arm once half is used up: a write then has between half
			// the timeout and all of it, and most writes skip the re-arm.
			if now := time.Now(); fw.expires.Sub(now) < fw.timeout/2 {
				fw.expires = now.Add(fw.timeout)
				fw.conn.SetWriteDeadline(fw.expires)
			}
		}
		_, err := fw.conn.Write(out)
		fw.writes.Inc()
		fw.mu.Lock()
		if cap(out) <= 4*coalesceLimit {
			fw.spare = out // else a burst's buffer is not kept for good
		}
		if err != nil {
			fw.err = err
			fw.conn.Close()
		}
	}
	fw.flushing = false
	fw.taken.Broadcast()
	return fw.err
}
