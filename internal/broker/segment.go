package broker

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segmented append-only log. One segLog holds one topic's records as a
// directory of numbered segment files that roll over at a configurable
// byte size, in the style of a Kafka- or influxdb-messaging-style
// topic log. Each record is CRC-framed:
//
//	u32 little-endian frame length  (lsn prefix + record bytes)
//	u32 little-endian CRC-32C of the frame
//	uvarint LSN | record bytes
//
// The LSN is the journal-wide log sequence number: it totals-orders
// records across all topics of one journal, names each follower's
// replication position, and keys segment files (a segment file is
// named by the LSN of its first record).
//
// A truncated or CRC-corrupt record ends that segment's replay as a
// clean end-of-log — a crash mid-append tears at most the final record
// of the final segment, and the torn bytes must never poison recovery.
// Whole segments are deleted from the front once every enqueue in them
// is settled (see topicLog), which is the log-truncation story the old
// monolithic journal solved with rewrite-on-open compaction.

const (
	// DefaultMaxSegmentBytes is the segment rollover size used when
	// DurableOptions.MaxSegmentBytes is zero. Small enough that settled
	// traffic is reclaimed promptly, large enough that a segment holds
	// many records.
	DefaultMaxSegmentBytes = 4 << 20

	// maxSegRecord bounds one framed record; anything larger marks a
	// corrupt frame header, not a real record.
	maxSegRecord = 16 << 20

	segSuffix = ".seg"
)

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// segLog is one topic's segmented log. Not safe for concurrent use;
// the owning journal serializes access.
type segLog struct {
	dir   string
	max   int64
	ids   []uint64 // sorted first-LSN segment ids, including the active one
	f     *os.File // active segment, nil until the first append
	w     *bufio.Writer
	size  int64
	dirty bool                            // listed in the owner's dirtyLogs
	hdr   [8 + binary.MaxVarintLen64]byte // append's scratch: a local would escape through w
}

// dirtyLogs lists the logs holding appended but unflushed records, so
// that the owner of many logs ends a batch of appends with one write
// per touched segment.
type dirtyLogs []*segLog

func (d *dirtyLogs) add(l *segLog) {
	if !l.dirty {
		l.dirty = true
		*d = append(*d, l)
	}
}

// flush hands every listed log's buffered records to the OS and empties
// the list, returning the first error.
func (d *dirtyLogs) flush() error {
	var first error
	for i, l := range *d {
		if err := l.flush(); err != nil && first == nil {
			first = err
		}
		l.dirty = false
		(*d)[i] = nil
	}
	*d = (*d)[:0]
	return first
}

// openSegLog scans dir (creating it) for existing segment files. It
// does not read their contents; call replay for that.
func openSegLog(dir string, max int64) (*segLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("broker: segment dir: %w", err)
	}
	if max <= 0 {
		max = DefaultMaxSegmentBytes
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &segLog{dir: dir, max: max}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		l.ids = append(l.ids, id)
	}
	sort.Slice(l.ids, func(i, j int) bool { return l.ids[i] < l.ids[j] })
	return l, nil
}

func (l *segLog) segPath(id uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%020d%s", id, segSuffix))
}

// append frames one record into the active segment's write buffer,
// rolling over to a new segment (named by this record's LSN) when the
// active one has reached the size bound. It returns the id of the
// segment the record landed in. The record reaches the OS only at the
// next flush: the owner appends a whole batch, flushes once, and
// treats nothing as durable (acknowledged, offered to replicas) before
// that flush returned.
func (l *segLog) append(lsn uint64, rec []byte) (uint64, error) {
	if l.f != nil && l.size >= l.max {
		if err := l.close(); err != nil {
			return 0, err
		}
	}
	if l.f == nil {
		f, err := os.OpenFile(l.segPath(lsn), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, err
		}
		l.f = f
		l.w = bufio.NewWriter(f)
		l.size = 0
		l.ids = append(l.ids, lsn)
	}
	hdr := &l.hdr
	k := binary.PutUvarint(hdr[8:], lsn)
	binary.LittleEndian.PutUint32(hdr[:4], uint32(k+len(rec)))
	crc := crc32.Update(crc32.Update(0, segCRC, hdr[8:8+k]), segCRC, rec)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	l.w.Write(hdr[:8+k])
	if _, err := l.w.Write(rec); err != nil {
		return 0, err // bufio errors are sticky: this covers the header too
	}
	l.size += int64(8 + k + len(rec))
	return l.activeID(), nil
}

// flush hands the buffered records to the OS.
func (l *segLog) flush() error {
	if l.w == nil {
		return nil // closed (and flushed) since it was appended to
	}
	return l.w.Flush()
}

// activeID is the id of the segment currently being appended to; zero
// when nothing was ever appended.
func (l *segLog) activeID() uint64 {
	if len(l.ids) == 0 {
		return 0
	}
	return l.ids[len(l.ids)-1]
}

// segments returns the segment ids in log order.
func (l *segLog) segments() []uint64 {
	return append([]uint64(nil), l.ids...)
}

// replay streams every surviving record in log order. A torn or
// corrupt tail record ends that segment's replay cleanly (crash during
// append); replay continues with the next segment.
func (l *segLog) replay(fn func(lsn uint64, rec []byte, segID uint64) error) error {
	for _, id := range l.ids {
		f, err := os.Open(l.segPath(id))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		r := bufio.NewReader(f)
		for {
			lsn, rec, err := readSegRecord(r)
			if err != nil {
				break // io.EOF or a torn/corrupt tail: clean end of segment
			}
			if err := fn(lsn, rec, id); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// readSegRecord reads one CRC-framed record. Any framing violation —
// short header, oversized length, short payload, CRC mismatch, bad LSN
// varint — is reported as io.ErrUnexpectedEOF so callers uniformly
// treat it as a torn tail.
func readSegRecord(r *bufio.Reader) (uint64, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxSegRecord {
		return 0, nil, io.ErrUnexpectedEOF
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, segCRC) != binary.LittleEndian.Uint32(hdr[4:]) {
		return 0, nil, io.ErrUnexpectedEOF
	}
	lsn, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return lsn, payload[k:], nil
}

// dropSegment deletes one (fully settled) segment file. The active
// segment is never dropped.
func (l *segLog) dropSegment(id uint64) error {
	if id == l.activeID() && l.f != nil {
		return fmt.Errorf("broker: cannot drop active segment %d", id)
	}
	for i, have := range l.ids {
		if have == id {
			l.ids = append(l.ids[:i], l.ids[i+1:]...)
			break
		}
	}
	return os.Remove(l.segPath(id))
}

func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.w = nil, nil
	return err
}

// topicDirName makes a queue name safe as a directory name. Queue
// names are dot-separated identifiers in practice; the escape keeps
// pathological names from escaping the topics directory.
func topicDirName(queue string) string {
	safe := func(r rune) bool {
		return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '.' || r == '-' || r == '_'
	}
	if queue == "" {
		return "%empty"
	}
	if strings.IndexFunc(queue, func(r rune) bool { return !safe(r) }) < 0 {
		return queue // the usual case, on the path of every replicated record
	}
	var sb strings.Builder
	for _, r := range queue {
		if safe(r) {
			sb.WriteRune(r)
		} else {
			fmt.Fprintf(&sb, "%%%04x", r)
		}
	}
	return sb.String()
}

// topicLog couples a topic's segmented log with the settle-frontier
// bookkeeping that drives truncation: per segment, how many journaled
// enqueues are not yet settled. Once the oldest segment's count hits
// zero the whole file is deleted — every record in it is either a
// settled enqueue or a settlement of an equally dead enqueue, so
// replay without it reconstructs the same queue.
type topicLog struct {
	log     *segLog
	pending map[uint64]uint64 // message id -> segment id of its live enqueue
	live    map[uint64]int    // segment id -> unsettled enqueue count
}

func newTopicLog(log *segLog) *topicLog {
	return &topicLog{
		log:     log,
		pending: make(map[uint64]uint64),
		live:    make(map[uint64]int),
	}
}

// track updates the settle-frontier accounting for one record landing
// in segment segID, then reclaims any fully settled prefix segments.
func (tl *topicLog) track(rec []byte, segID uint64) {
	if _, ok := tl.live[segID]; !ok {
		tl.live[segID] = 0
	}
	typ, id, ok := recMessageID(rec)
	if !ok {
		return
	}
	switch typ {
	case recEnqueue:
		if prev, ok := tl.pending[id]; ok {
			tl.live[prev]-- // re-enqueue supersedes the earlier record
		}
		tl.pending[id] = segID
		tl.live[segID]++
	case recSettle:
		if seg, ok := tl.pending[id]; ok {
			delete(tl.pending, id)
			tl.live[seg]--
		}
	}
	tl.gc()
}

// gc deletes fully settled segments from the front of the log. Only a
// prefix may go: a settle record always lands at or after its enqueue,
// so a prefix whose enqueues are all settled never holds a settlement
// some surviving segment still needs.
func (tl *topicLog) gc() {
	for {
		ids := tl.log.ids
		if len(ids) < 2 {
			return // never drop the active segment
		}
		first := ids[0]
		if tl.live[first] != 0 {
			return
		}
		if tl.log.dropSegment(first) != nil {
			return
		}
		delete(tl.live, first)
	}
}

// recMessageID extracts the record type and message id from an
// enqueue/settle record payload (both encode queue name then id).
func recMessageID(rec []byte) (typ byte, id uint64, ok bool) {
	if len(rec) == 0 {
		return 0, 0, false
	}
	typ = rec[0]
	if typ != recEnqueue && typ != recSettle {
		return typ, 0, false
	}
	rd := &reader{buf: rec[1:]}
	rd.field() // queue name
	id = rd.uvarint()
	return typ, id, rd.err == nil
}
