package broker

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
)

// Replication surface. A leader broker exposes its journal as a stream
// of committed records (ReplSubscribe); a follower applies that stream
// to a FollowerLog, which writes the identical on-disk layout —
// preserving the leader's LSNs — so promoting a follower is nothing
// more than opening its data directory with NewDurable. The consensus
// machinery itself (terms, votes, leases, quorum counting) lives in
// internal/broker/replica; this file is only the log-shaped interface
// it needs from the broker.

// ErrNotLeader is returned by a broker (or reported over the wire) when
// the contacted node is a replication follower: clients must retry
// against another member of the broker set.
var ErrNotLeader = errors.New("broker: not the leader")

// ReplRecord is one committed journal record, addressed for
// replication. Topic is the durable queue the record belongs to, or
// empty for topology (meta) records. Payload is the encoded record —
// type byte plus fields — exactly as journaled, so follower logs are
// byte-identical to the leader's.
type ReplRecord struct {
	LSN     uint64
	Topic   string
	Payload []byte
}

// LastLSN reports the highest LSN the broker's journal has assigned;
// zero on a non-durable broker. Failover elects the replica with the
// highest (term, LastLSN), i.e. the most-caught-up follower.
func (b *Broker) LastLSN() uint64 {
	if b.log == nil {
		return 0
	}
	return b.log.lastLSN()
}

// ReplSubscribe attaches a replication tap to the journal. It returns
// a consistent snapshot of every record currently in the log (in LSN
// order) plus a channel carrying all records committed after the
// snapshot; cancel detaches. The channel is closed by the broker if
// the subscriber falls more than buf records behind — the subscriber
// must then resubscribe and apply the fresh snapshot from scratch.
// Returns an error on a non-durable broker.
func (b *Broker) ReplSubscribe(buf int) ([]ReplRecord, <-chan ReplRecord, func(), error) {
	if b.log == nil {
		return nil, nil, nil, errors.New("broker: replication requires a durable broker")
	}
	return b.log.subscribe(buf)
}

// SetCommitGate installs fn on the publish path: after a publish has
// been journaled, fn is called with the highest LSN the publish
// produced and must return nil only once that LSN is replicated to a
// quorum. A gate error fails the publish — the message may still be
// enqueued locally (publishing is not transactional, exactly as in
// AMQP), and the at-least-once contract tells the publisher to retry.
// Pass nil to remove the gate. Internal re-enqueues (recovery replay,
// dead-lettering, nack-requeue) bypass the gate: they re-journal
// already-accepted messages.
func (b *Broker) SetCommitGate(fn func(ctx context.Context, lsn uint64) error) {
	b.gateMu.Lock()
	b.gate = fn
	b.gateMu.Unlock()
}

func (b *Broker) commitGate() func(ctx context.Context, lsn uint64) error {
	b.gateMu.RLock()
	defer b.gateMu.RUnlock()
	return b.gate
}

// Gated reports whether a commit gate is installed, i.e. whether
// AwaitCommit can block at all.
func (b *Broker) Gated() bool { return b.commitGate() != nil }

// FollowerLog writes a replicated record stream into a broker data
// directory using the leader's LSNs. It maintains the same per-topic
// truncation frontier as the live journal, so a long-lived follower
// reclaims settled segments at the same pace as its leader.
type FollowerLog struct {
	mu      sync.Mutex
	dir     string
	maxSeg  int64
	meta    *segLog
	topics  map[string]*topicLog
	dirty   dirtyLogs
	lastLSN uint64 // highest appended LSN
	flushed uint64 // highest LSN known flushed to the OS; what may be acked
	closed  bool
}

// OpenFollowerLog opens (or creates) dir as a follower-maintained
// journal, replaying existing segments to recover the last applied
// LSN and the truncation frontier.
func OpenFollowerLog(dir string, maxSeg int64) (*FollowerLog, error) {
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &FollowerLog{dir: dir, maxSeg: maxSeg, topics: make(map[string]*topicLog)}
	if err := f.load(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *FollowerLog) load() error {
	meta, err := openSegLog(filepath.Join(f.dir, metaDirName), f.maxSeg)
	if err != nil {
		return err
	}
	f.meta = meta
	bump := func(lsn uint64) {
		if lsn > f.lastLSN {
			f.lastLSN = lsn
		}
	}
	if err := meta.replay(func(lsn uint64, rec []byte, _ uint64) error {
		bump(lsn)
		return nil
	}); err != nil {
		return err
	}
	topicsDir := filepath.Join(f.dir, topicsDirName)
	entries, err := os.ReadDir(topicsDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sl, err := openSegLog(filepath.Join(topicsDir, e.Name()), f.maxSeg)
		if err != nil {
			return err
		}
		tl := newTopicLog(sl)
		// Rebuild the frontier from the surviving records; per-topic
		// file order is append order, which is all tracking needs.
		if err := sl.replay(func(lsn uint64, rec []byte, segID uint64) error {
			bump(lsn)
			tl.track(rec, segID)
			return nil
		}); err != nil {
			return err
		}
		f.topics[e.Name()] = tl
	}
	f.flushed = f.lastLSN // read back from the files
	return nil
}

// Reset wipes the follower's journal for a full resynchronization from
// a leader snapshot.
func (f *FollowerLog) Reset() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeLogsLocked()
	if err := os.RemoveAll(filepath.Join(f.dir, metaDirName)); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(f.dir, topicsDirName)); err != nil {
		return err
	}
	f.topics = make(map[string]*topicLog)
	f.dirty = nil
	f.lastLSN, f.flushed = 0, 0
	meta, err := openSegLog(filepath.Join(f.dir, metaDirName), f.maxSeg)
	if err != nil {
		return err
	}
	f.meta = meta
	return nil
}

// Append applies one replicated record: AppendBatch of one.
func (f *FollowerLog) Append(rec ReplRecord) error {
	recs := [1]ReplRecord{rec}
	_, err := f.AppendBatch(recs[:])
	return err
}

// AppendBatch applies a run of replicated records in order and then
// flushes once per touched segment. It returns the LSN up to which the
// log is flushed to the OS — the only LSN a follower may acknowledge —
// which on error is where the previous successful call left it.
// Records at or below the last applied LSN are ignored (duplicates from
// stream handoff); a delete-queue record reclaims the topic's segments
// just as on the leader.
func (f *FollowerLog) AppendBatch(recs []ReplRecord) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return f.flushed, ErrClosed
	}
	for i := range recs {
		if err := f.appendLocked(&recs[i]); err != nil {
			return f.flushed, err
		}
	}
	if err := f.dirty.flush(); err != nil {
		return f.flushed, err
	}
	f.flushed = f.lastLSN
	return f.flushed, nil
}

func (f *FollowerLog) appendLocked(rec *ReplRecord) error {
	if rec.LSN <= f.lastLSN {
		return nil
	}
	f.lastLSN = rec.LSN
	if rec.Topic == "" {
		if _, err := f.meta.append(rec.LSN, rec.Payload); err != nil {
			return err
		}
		f.dirty.add(f.meta)
		if len(rec.Payload) > 0 && rec.Payload[0] == recDeleteQueue {
			rd := &reader{buf: rec.Payload[1:]}
			name := rd.string()
			if rd.err == nil {
				if tl, ok := f.topics[topicDirName(name)]; ok {
					tl.log.close()
					os.RemoveAll(tl.log.dir)
					delete(f.topics, topicDirName(name))
				}
			}
		}
		return nil
	}
	key := topicDirName(rec.Topic)
	tl := f.topics[key]
	if tl == nil {
		sl, err := openSegLog(filepath.Join(f.dir, topicsDirName, key), f.maxSeg)
		if err != nil {
			return err
		}
		tl = newTopicLog(sl)
		f.topics[key] = tl
	}
	segID, err := tl.log.append(rec.LSN, rec.Payload)
	if err != nil {
		return err
	}
	f.dirty.add(tl.log)
	tl.track(rec.Payload, segID)
	return nil
}

// LastLSN reports the highest applied LSN.
func (f *FollowerLog) LastLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastLSN
}

// FlushedLSN reports the LSN up to which the log is flushed to the OS.
func (f *FollowerLog) FlushedLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushed
}

// Close releases the file handles. The directory remains valid for a
// later OpenFollowerLog or — on promotion — NewDurable.
func (f *FollowerLog) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.closeLogsLocked()
	return nil
}

func (f *FollowerLog) closeLogsLocked() {
	f.dirty = nil // close flushes
	if f.meta != nil {
		f.meta.close()
		f.meta = nil
	}
	for _, tl := range f.topics {
		tl.log.close()
	}
}
