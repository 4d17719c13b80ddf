package wire

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"bistream/internal/broker"
)

// sinkConn is a connection that swallows writes and never yields a
// byte: enough of a peer for driving one side's frame handler directly.
type sinkConn struct{}

func (sinkConn) Read([]byte) (int, error)         { select {} }
func (sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (sinkConn) Close() error                     { return nil }
func (sinkConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (sinkConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (sinkConn) SetDeadline(time.Time) error      { return nil }
func (sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }

func request(op byte, reqID uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{op}, reqID)
}

// requestSeeds is one well-formed frame per request opcode.
func requestSeeds() [][]byte {
	u64 := binary.LittleEndian.AppendUint64
	declQ := appendString(request(opDeclareQueue, 2), "q2")
	declQ = append(declQ, 0)                 // autoDelete
	declQ = binary.AppendUvarint(declQ, 8)   // maxLen
	declQ = append(declQ, 0)                 // durable
	declQ = binary.AppendUvarint(declQ, 0+1) // maxRedeliver, shifted
	consume := appendString(u64(request(opConsume, 6), 1), "q")
	consume = append(binary.AppendUvarint(consume, 4), 0)
	return [][]byte{
		append(appendString(request(opDeclareExchange, 1), "ex2"), byte(broker.Topic)),
		declQ,
		appendString(request(opDeleteQueue, 3), "q"),
		appendString(appendString(appendString(request(opBind, 4), "q"), "ex"), "k2"),
		appendPublications(request(opPublishBatch, 5), []broker.Publication{
			{Exchange: "ex", RoutingKey: "k", Headers: map[string]string{"h": "v"}, Body: []byte("one")},
			{Exchange: "ex", RoutingKey: "k", Body: []byte("two")},
			{Exchange: "missing", RoutingKey: "k"},
		}),
		consume,
		appendTags(u64(request(opAckBatch, 7), 1), []uint64{1, 2, 99}),
		append(u64(u64(request(opNack, 8), 1), 1), 1),
		u64(request(opCancel, 9), 1),
		appendString(request(opQueueStats, 10), "q"),
		request(opPing, 11),
		request(opPublish, 12), // retired: must be refused, not crash
		request(opAck, 13),
	}
}

// FuzzWireRequest feeds arbitrary frames to a server session over an
// in-memory broker. The handler must be total — an error closes the
// connection, nothing panics — and must not allocate out of proportion
// to the frame: every count in a frame is checked against the bytes
// that are actually there before anything is sized by it.
func FuzzWireRequest(f *testing.F) {
	for _, seed := range requestSeeds() {
		f.Add(seed)
	}
	// Counts far beyond the bytes behind them.
	f.Add(binary.AppendUvarint(request(opPublishBatch, 1), 1<<40))
	f.Add(binary.AppendUvarint(binary.LittleEndian.AppendUint64(request(opAckBatch, 1), 1), 1<<40))
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 || len(frame) > 1<<16 {
			return // FrameReader never yields an empty frame
		}
		b := broker.New(nil)
		defer b.Close()
		b.DeclareExchange("ex", broker.Direct)
		b.DeclareQueue("q", broker.QueueOptions{})
		b.Bind("q", "ex", "k")
		b.Publish("ex", "k", nil, []byte("waiting"))
		sess := NewServer(b, nil).newSession(sinkConn{})
		defer sess.teardown()
		// A consumer for the settle opcodes to address.
		sess.handle(requestSeeds()[5])

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess.handle(frame)
		runtime.ReadMemStats(&after)
		// Decoded fields are copies of frame bytes, plus fixed-size
		// bookkeeping per decoded element; the slack absorbs what the
		// broker's own goroutines allocate meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(frame))+1<<20 {
			t.Fatalf("a %d-byte frame made the handler allocate %d bytes", len(frame), grew)
		}
	})
}

// replySeeds is one well-formed frame per server-to-client opcode.
func replySeeds() [][]byte {
	u64 := binary.LittleEndian.AppendUint64
	deliver := append(u64(u64([]byte{opDeliver}, 1), 7), 1)
	deliver = appendString(appendString(appendString(deliver, "q"), "ex"), "k")
	deliver = appendBytes(appendHeaders(deliver, map[string]string{"h": "v"}), []byte("body"))
	publishReply := binary.AppendUvarint(u64([]byte{opPublishReply}, 1), 3)
	return [][]byte{
		appendString(u64([]byte{opReply}, 1), ""),
		appendString(u64([]byte{opReply}, 1), broker.ErrNoQueue.Error()+`: "q"`),
		u64([]byte{opConsumeOK}, 1),
		encodeStats(appendString(u64([]byte{opStatsReply}, 1), ""), broker.QueueStats{Name: "q", Ready: 3, InRate: 1.5}),
		deliver,
		u64([]byte{opConsumerEOF}, 1),
		appendString(publishReply, "broker: not the leader"),
	}
}

// FuzzWireReply feeds arbitrary frames to the client's dispatcher, with
// a request pending and a consumer attached for them to address: it
// must be total, failing the connection with an error at worst.
func FuzzWireReply(f *testing.F) {
	for _, seed := range replySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		c := newClient(Config{})
		rc := newRemoteConsumer(c, 1, "q", 4, false)
		defer rc.once.Do(func() { close(rc.dead) })
		c.consumers[1] = rc
		c.pending[1] = make(chan response, 1)
		_ = c.dispatch(frame)
	})
}
