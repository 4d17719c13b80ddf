package broker

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Durability. The text highlights the binder's durable consumer-group
// subscriptions: "the group will receive messages even if they are sent
// while all applications in the group are stopped". The in-process
// broker supports the same through an append-only log: declares, binds,
// enqueues into durable queues and settlements are logged; reopening
// the log replays them, so messages published while no consumer was
// attached — or not yet acknowledged at shutdown — survive a broker
// restart.
//
// The log is segmented (see segment.go): topology records live under
// dir/meta, each durable queue's enqueue/settle records under
// dir/topics/<queue>, all rolling over at MaxSegmentBytes and stamped
// with a journal-wide LSN. Fully settled segments are reclaimed online
// (prefix truncation per topic); the whole log is additionally
// compacted on open.
//
// Semantics: at-least-once. A message that was requeued (Nack) and
// later settled may, across a crash, be redelivered once more —
// matching real AMQP brokers. Records are flushed to the OS once per
// broker operation (a PublishBatch, an AckBatch, a dispatcher run — see
// flush), never per record, and only flushed records are offered to
// replication taps; fsync is left to the OS, as RabbitMQ's default
// publish path does without publisher confirms.

// journal record types.
const (
	recDeclareExchange byte = iota + 1
	recDeclareQueue
	recBind
	recEnqueue
	recSettle
	recDeleteQueue
)

// errCorruptRecord marks a record whose fields do not parse; replay
// skips it.
var errCorruptRecord = errors.New("broker: corrupt journal record")

// journal names inside the broker data directory.
const (
	metaDirName   = "meta"
	topicsDirName = "topics"
)

type journal struct {
	mu     sync.Mutex
	dir    string
	maxSeg int64
	meta   *segLog              // topology records
	topics map[string]*topicLog // durable queue name -> its segmented log
	lsn    uint64               // last assigned journal-wide LSN

	taps   map[uint64]chan ReplRecord // live replication taps
	tapSeq uint64

	// Group commit: appends only buffer. dirty lists the logs holding
	// buffered records and unsent the records no tap has seen yet, in
	// LSN order; flushLocked empties both.
	dirty  dirtyLogs
	unsent []ReplRecord
}

// journalState is the replayed content of a journal.
type journalState struct {
	exchanges []recExchange
	queues    []recQueue
	binds     []recBinding
	// messages per durable queue, in enqueue order, already trimmed of
	// settled deliveries. Settlement is tracked per message id, so
	// out-of-order acks (competing consumers, requeues) drop exactly
	// the right messages.
	messages map[string][]Message
}

// qReplay accumulates one queue's journal events in order.
type qReplay struct {
	order []uint64
	msgs  map[uint64]Message
}

func (qr *qReplay) enqueue(id uint64, msg Message) {
	if qr.msgs == nil {
		qr.msgs = make(map[uint64]Message)
	}
	qr.msgs[id] = msg
	qr.order = append(qr.order, id)
}

func (qr *qReplay) settle(id uint64) { delete(qr.msgs, id) }

func (qr *qReplay) live() []Message {
	var out []Message
	for _, id := range qr.order {
		if msg, ok := qr.msgs[id]; ok {
			out = append(out, msg)
			delete(qr.msgs, id) // a re-enqueued id emits once, at its
			// earliest surviving position
		}
	}
	return out
}

type recExchange struct {
	name string
	kind ExchangeKind
}

type recQueue struct {
	name string
	opts QueueOptions
}

type recBinding struct {
	queue, exchange, key string
}

// stateBuilder folds journal records, in log order, into a
// journalState. The segmented replay feeds it records sorted by LSN.
type stateBuilder struct {
	state   *journalState
	replays map[string]*qReplay
}

func newStateBuilder() *stateBuilder {
	return &stateBuilder{
		state:   &journalState{messages: make(map[string][]Message)},
		replays: make(map[string]*qReplay),
	}
}

func (sb *stateBuilder) queueReplay(name string) *qReplay {
	qr := sb.replays[name]
	if qr == nil {
		qr = &qReplay{}
		sb.replays[name] = qr
	}
	return qr
}

// apply folds one record into the state. Records that do not parse are
// skipped, consistent with the torn-tail tolerance of the file layer.
func (sb *stateBuilder) apply(rec []byte) {
	if len(rec) == 0 {
		return
	}
	state := sb.state
	rd := &reader{buf: rec[1:]}
	switch rec[0] {
	case recDeclareExchange:
		name := rd.string()
		kind := ExchangeKind(rd.byte())
		if rd.err == nil {
			state.exchanges = append(state.exchanges, recExchange{name, kind})
		}
	case recDeclareQueue:
		name := rd.string()
		opts := QueueOptions{
			AutoDelete: rd.bool(),
			MaxLen:     int(rd.uvarint()),
			Durable:    true,
		}
		if rd.err == nil {
			// MaxRedeliver is stored shifted by one so that the
			// unlimited sentinel (-1) journals as zero; journals from
			// before the field default it (absent → 0 → default).
			if len(rd.buf) > 0 {
				opts.MaxRedeliver = int(rd.uvarint()) - 1
			}
		}
		if rd.err == nil {
			state.queues = append(state.queues, recQueue{name, opts})
		}
	case recBind:
		q, ex, key := rd.string(), rd.string(), rd.string()
		if rd.err == nil {
			state.binds = append(state.binds, recBinding{q, ex, key})
		}
	case recEnqueue:
		q := rd.string()
		id := rd.uvarint()
		msg := Message{
			Exchange:   rd.string(),
			RoutingKey: rd.string(),
			Headers:    rd.headers(),
			Body:       rd.bytes(),
		}
		if rd.err == nil {
			sb.queueReplay(q).enqueue(id, msg)
		}
	case recSettle:
		q := rd.string()
		id := rd.uvarint()
		if rd.err == nil {
			sb.queueReplay(q).settle(id)
		}
	case recDeleteQueue:
		name := rd.string()
		if rd.err == nil {
			kept := state.queues[:0]
			for _, q := range state.queues {
				if q.name != name {
					kept = append(kept, q)
				}
			}
			state.queues = kept
			keptB := state.binds[:0]
			for _, bd := range state.binds {
				if bd.queue != name {
					keptB = append(keptB, bd)
				}
			}
			state.binds = keptB
			delete(sb.replays, name)
		}
	default:
		// Unknown record from a future version: skip.
	}
}

func (sb *stateBuilder) finish() *journalState {
	for q, qr := range sb.replays {
		if live := qr.live(); len(live) > 0 {
			sb.state.messages[q] = live
		}
	}
	return sb.state
}

// openJournal loads (and compacts) an existing journal directory,
// returning the replayed state and an open journal positioned for
// appending. Compaction wipes the segment directories and rewrites
// only the topology records; the caller re-enqueues the surviving
// messages through the normal (journaled) path, which assigns them
// fresh ids. The new LSN sequence continues above the highest replayed
// LSN, so LSNs stay monotonic across restarts — replication positions
// and failover catch-up comparisons depend on that.
func openJournal(dir string, maxSeg int64) (*journal, *journalState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegmentBytes
	}
	metaDir := filepath.Join(dir, metaDirName)
	topicsDir := filepath.Join(dir, topicsDirName)

	sb := newStateBuilder()
	var maxLSN uint64
	if _, err := os.Stat(metaDir); err == nil {
		// Segmented layout: merge-replay every log in LSN order, so
		// interleavings like declare/enqueue/delete-queue/redeclare
		// resolve exactly as they happened.
		type replayRec struct {
			lsn uint64
			rec []byte
		}
		var all []replayRec
		collect := func(logDir string) error {
			l, err := openSegLog(logDir, maxSeg)
			if err != nil {
				return err
			}
			defer l.close()
			return l.replay(func(lsn uint64, rec []byte, _ uint64) error {
				if lsn > maxLSN {
					maxLSN = lsn
				}
				all = append(all, replayRec{lsn, rec})
				return nil
			})
		}
		if err := collect(metaDir); err != nil {
			return nil, nil, err
		}
		if entries, err := os.ReadDir(topicsDir); err == nil {
			for _, e := range entries {
				if !e.IsDir() {
					continue
				}
				if err := collect(filepath.Join(topicsDir, e.Name())); err != nil {
					return nil, nil, err
				}
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
		for _, r := range all {
			sb.apply(r.rec)
		}
	}
	state := sb.finish()

	// Compact: wipe the directories and rewrite the topology records.
	if err := os.RemoveAll(metaDir); err != nil {
		return nil, nil, err
	}
	if err := os.RemoveAll(topicsDir); err != nil {
		return nil, nil, err
	}
	meta, err := openSegLog(metaDir, maxSeg)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{
		dir:    dir,
		maxSeg: maxSeg,
		meta:   meta,
		topics: make(map[string]*topicLog),
		lsn:    maxLSN,
		taps:   make(map[uint64]chan ReplRecord),
	}
	for _, ex := range state.exchanges {
		j.logDeclareExchange(ex.name, ex.kind)
	}
	for _, q := range state.queues {
		j.logDeclareQueue(q.name, q.opts)
	}
	for _, bd := range state.binds {
		j.logBind(bd.queue, bd.exchange, bd.key)
	}
	return j, state, nil
}

// appendMeta writes one topology record, assigning its LSN, and flushes:
// topology changes are rare and their callers have no batch to end.
func (j *journal) appendMeta(rec []byte) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lsn++
	j.meta.append(j.lsn, rec) // best-effort, like the pre-segment journal
	j.bufferedLocked(j.meta, ReplRecord{LSN: j.lsn, Payload: rec})
	j.flushLocked()
	return j.lsn
}

// appendTopic buffers one enqueue/settle record into the queue's topic
// log, assigning its LSN and advancing the truncation frontier. The
// caller flushes once its operation has appended everything it will.
func (j *journal) appendTopic(queue string, rec []byte) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lsn++
	tl := j.topics[queue]
	if tl == nil {
		sl, err := openSegLog(j.topicDir(queue), j.maxSeg)
		if err != nil {
			return j.lsn // unjournaled: best-effort, matching append errors
		}
		tl = newTopicLog(sl)
		j.topics[queue] = tl
	}
	if segID, err := tl.log.append(j.lsn, rec); err == nil {
		tl.track(rec, segID)
	}
	j.bufferedLocked(tl.log, ReplRecord{LSN: j.lsn, Topic: queue, Payload: rec})
	return j.lsn
}

func (j *journal) topicDir(queue string) string {
	return filepath.Join(j.dir, topicsDirName, topicDirName(queue))
}

// bufferedLocked notes a record appended to l but not yet flushed.
func (j *journal) bufferedLocked(l *segLog, rec ReplRecord) {
	j.dirty.add(l)
	if len(j.taps) > 0 {
		j.unsent = append(j.unsent, rec)
	}
}

// flush ends a batch of appends: every record buffered so far — by this
// caller or any other — reaches the OS with one write per touched
// segment and is then offered to the replication taps in LSN order. A
// record is thus never replicated, and so never counted towards a
// quorum, before the leader's own copy is as safe as a follower's.
func (j *journal) flush() {
	j.mu.Lock()
	j.flushLocked()
	j.mu.Unlock()
}

func (j *journal) flushLocked() {
	j.dirty.flush() // best-effort, like the appends
	for _, rec := range j.unsent {
		j.emitLocked(rec)
	}
	clear(j.unsent) // drop the payload references
	j.unsent = j.unsent[:0]
}

// emitLocked fans a flushed record out to the live replication taps.
// A tap too slow to keep up is closed and dropped — the follower
// detects the closed channel and resynchronizes from a fresh snapshot,
// which is always safe and never blocks the publish path.
func (j *journal) emitLocked(rec ReplRecord) {
	for id, ch := range j.taps {
		select {
		case ch <- rec:
		default:
			close(ch)
			delete(j.taps, id)
		}
	}
}

// subscribe returns a consistent snapshot of every record currently in
// the log (sorted by LSN) plus a live tap that receives all records
// appended after the snapshot. cancel detaches the tap.
func (j *journal) subscribe(buf int) ([]ReplRecord, <-chan ReplRecord, func(), error) {
	if buf < 1 {
		buf = 1024
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// The snapshot is read back from the segment files, and the new tap
	// must start exactly where it ends.
	j.flushLocked()
	var snap []ReplRecord
	collect := func(l *segLog, topic string) error {
		return l.replay(func(lsn uint64, rec []byte, _ uint64) error {
			snap = append(snap, ReplRecord{LSN: lsn, Topic: topic, Payload: rec})
			return nil
		})
	}
	if err := collect(j.meta, ""); err != nil {
		return nil, nil, nil, err
	}
	for q, tl := range j.topics {
		if err := collect(tl.log, q); err != nil {
			return nil, nil, nil, err
		}
	}
	sort.Slice(snap, func(i, k int) bool { return snap[i].LSN < snap[k].LSN })
	ch := make(chan ReplRecord, buf)
	id := j.tapSeq
	j.tapSeq++
	j.taps[id] = ch
	cancel := func() {
		j.mu.Lock()
		if _, ok := j.taps[id]; ok {
			delete(j.taps, id)
			close(ch)
		}
		j.mu.Unlock()
	}
	return snap, ch, cancel, nil
}

// lastLSN reports the highest assigned LSN.
func (j *journal) lastLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lsn
}

func (j *journal) logDeclareExchange(name string, kind ExchangeKind) {
	rec := []byte{recDeclareExchange}
	rec = appendString(rec, name)
	rec = append(rec, byte(kind))
	j.appendMeta(rec)
}

// logDeleteQueue journals the deletion and reclaims the queue's topic
// log wholesale — every record in it is dead past the delete.
func (j *journal) logDeleteQueue(name string) {
	rec := []byte{recDeleteQueue}
	rec = appendString(rec, name)
	j.mu.Lock()
	j.lsn++
	j.meta.append(j.lsn, rec)
	j.bufferedLocked(j.meta, ReplRecord{LSN: j.lsn, Payload: rec})
	j.flushLocked() // before the topic's files go: taps see its records first
	if tl := j.topics[name]; tl != nil {
		tl.log.close()
		os.RemoveAll(tl.log.dir)
		delete(j.topics, name)
	}
	j.mu.Unlock()
}

func (j *journal) logDeclareQueue(name string, opts QueueOptions) {
	rec := []byte{recDeclareQueue}
	rec = appendString(rec, name)
	rec = append(rec, boolByte(opts.AutoDelete))
	rec = binary.AppendUvarint(rec, uint64(opts.MaxLen))
	rec = binary.AppendUvarint(rec, uint64(opts.MaxRedeliver+1))
	j.appendMeta(rec)
}

func (j *journal) logBind(queue, exchange, key string) {
	rec := []byte{recBind}
	rec = appendString(rec, queue)
	rec = appendString(rec, exchange)
	rec = appendString(rec, key)
	j.appendMeta(rec)
}

func (j *journal) logEnqueue(queue string, id uint64, msg Message) uint64 {
	size := 24 + len(queue) + len(msg.Exchange) + len(msg.RoutingKey) + len(msg.Body)
	for k, v := range msg.Headers {
		size += 4 + len(k) + len(v)
	}
	rec := append(make([]byte, 0, size), recEnqueue)
	rec = appendString(rec, queue)
	rec = binary.AppendUvarint(rec, id)
	rec = appendString(rec, msg.Exchange)
	rec = appendString(rec, msg.RoutingKey)
	rec = appendHeaders(rec, msg.Headers)
	rec = appendBytes(rec, msg.Body)
	return j.appendTopic(queue, rec)
}

func (j *journal) logSettle(queue string, id uint64) {
	rec := append(make([]byte, 0, 16+len(queue)), recSettle)
	rec = appendString(rec, queue)
	rec = binary.AppendUvarint(rec, id)
	j.appendTopic(queue, rec)
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.flushLocked()
	for id, ch := range j.taps {
		close(ch)
		delete(j.taps, id)
	}
	err := j.meta.close()
	for _, tl := range j.topics {
		if cerr := tl.log.close(); err == nil {
			err = cerr
		}
	}
	return err
}
