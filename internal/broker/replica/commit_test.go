package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/wire"
)

// leaderForTest returns an unstarted node that believes it leads term 1
// of a five-node group at quorum 3: commit needs two distinct followers.
func leaderForTest(t *testing.T, ackTimeout time.Duration) *Node {
	t.Helper()
	peers := map[string]string{"l": "", "a": "", "b": "", "c": "", "d": ""}
	n, err := NewNode(Config{ID: "l", Dir: t.TempDir(), Peers: peers, Quorum: 3, AckTimeout: ackTimeout})
	if err != nil {
		t.Fatal(err)
	}
	n.roleVal, n.term, n.leaderTerm = Leader, 1, 1
	return n
}

func (n *Node) joinForTest(id string) *followerState {
	fs := &followerState{id: id, term: n.leaderTerm}
	n.mu.Lock()
	n.followers[fs] = struct{}{}
	n.mu.Unlock()
	return fs
}

func (n *Node) ackForTest(fs *followerState, lsn uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ackLocked(fs, lsn)
	return n.commitLSN
}

// TestCommitLSNMonotoneAndQuorumExact pins the commit rule: the commit
// LSN is the (quorum-1)-th highest ack over distinct follower ids,
// never more (a follower's second session does not vote twice), never
// less, and never decreasing — while a waiter still honours AckTimeout,
// its context, and the loss of leadership.
func TestCommitLSNMonotoneAndQuorumExact(t *testing.T) {
	n := leaderForTest(t, 150*time.Millisecond)
	a, b, c := n.joinForTest("a"), n.joinForTest("b"), n.joinForTest("c")
	steps := []struct {
		fs   *followerState
		ack  uint64
		want uint64
		why  string
	}{
		{a, 10, 0, "one follower is not quorum-1 = 2"},
		{b, 5, 5, "second highest of a=10 b=5"},
		{a, 8, 5, "an ack below the session's high-water mark changes nothing"},
		{c, 7, 7, "second highest of a=10 c=7 b=5"},
		{b, 20, 10, "second highest of b=20 a=10 c=7"},
	}
	for _, s := range steps {
		if got := n.ackForTest(s.fs, s.ack); got != s.want {
			t.Fatalf("after %s acks %d: commit = %d, want %d (%s)", s.fs.id, s.ack, got, s.want, s.why)
		}
	}
	// The same follower id on a second session (it reconnected before the
	// first was reaped) counts once, at its best.
	a2 := n.joinForTest("a")
	if got := n.ackForTest(a2, 30); got != 20 {
		t.Fatalf("a's second session acked 30: commit = %d, want 20 (a=30 b=20 c=7; a votes once)", got)
	}
	// A follower leaving takes nothing back.
	n.mu.Lock()
	delete(n.followers, b)
	n.mu.Unlock()
	if got := n.ackForTest(c, 8); got != 20 {
		t.Fatalf("after b left: commit = %d, want it to stay 20", got)
	}
	if got := n.ackForTest(c, 25); got != 25 {
		t.Fatalf("c acked 25: commit = %d, want 25 (a=30 c=25)", got)
	}
	// A session of an earlier reign does not vote in this one.
	old := &followerState{id: "d", term: 0}
	n.mu.Lock()
	n.followers[old] = struct{}{}
	n.mu.Unlock()
	n.ackForTest(old, 99)
	if got := n.ackForTest(c, 26); got != 26 {
		t.Fatalf("a session of term 0 moved the commit of term 1 to %d", got)
	}

	ctx := context.Background()
	if err := n.commitGate(ctx, 26); err != nil {
		t.Fatalf("commitGate(26) at commit 26 = %v", err)
	}
	// A follower leaves mid-wait: the wait goes on, and is released by the
	// acks of those that remain.
	waitErr := make(chan error, 1)
	go func() { waitErr <- n.commitGate(ctx, 40) }()
	time.Sleep(10 * time.Millisecond)
	n.mu.Lock()
	delete(n.followers, a)
	delete(n.followers, a2)
	n.mu.Unlock()
	n.ackForTest(c, 40) // alone: c=40 and no second follower
	select {
	case err := <-waitErr:
		t.Fatalf("commitGate(40) returned %v with one follower at 40", err)
	case <-time.After(20 * time.Millisecond):
	}
	d := n.joinForTest("d")
	if got := n.ackForTest(d, 45); got != 40 {
		t.Fatalf("d acked 45: commit = %d, want 40 (d=45 c=40)", got)
	}
	if err := <-waitErr; err != nil {
		t.Fatalf("commitGate(40) = %v after the commit reached 40", err)
	}
	// AckTimeout.
	start := time.Now()
	if err := n.commitGate(ctx, 1000); err == nil || errors.Is(err, broker.ErrNotLeader) {
		t.Fatalf("commitGate(1000) = %v; want a quorum timeout", err)
	} else if waited := time.Since(start); waited < 100*time.Millisecond || waited > 3*time.Second {
		t.Fatalf("quorum timeout after %v; AckTimeout is 150ms", waited)
	}
	// Context cancellation.
	cctx, cancel := context.WithCancel(ctx)
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if err := n.commitGate(cctx, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("commitGate with a cancelled context = %v", err)
	}
	// Losing leadership fails the waiters.
	go func() { waitErr <- n.commitGate(ctx, 1000) }()
	time.Sleep(10 * time.Millisecond)
	n.mu.Lock()
	n.roleVal = Follower
	n.bumpTermLocked(2)
	n.mu.Unlock()
	if err := <-waitErr; !errors.Is(err, broker.ErrNotLeader) {
		t.Fatalf("commitGate across a step-down = %v; want ErrNotLeader", err)
	}
}

// fakeLeader accepts one follower on ln and completes the join
// handshake with an empty snapshot, returning the stream.
func fakeLeader(t *testing.T, ln net.Listener) (net.Conn, *wire.FrameReader) {
	t.Helper()
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	for {
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		in := wire.NewFrameReader(conn)
		payload, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		join, err := decodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if join.Op != rJoin { // a vote request from the same node: refuse
			wire.WriteFrame(conn, encodeFrame(frame{Op: rVoteResp, Term: join.Term}))
			conn.Close()
			continue
		}
		mustWrite(t, conn, frame{Op: rWelcome, Term: join.Term, ID: "lead"}, frame{Op: rSnapEnd})
		return conn, in
	}
}

// mustWrite sends the frames in ONE socket write, so that the follower
// finds them in one read.
func mustWrite(t *testing.T, conn net.Conn, frames ...frame) {
	t.Helper()
	var buf []byte
	for _, f := range frames {
		p := encodeFrame(f)
		buf = append(buf, byte(len(p)>>24), byte(len(p)>>16), byte(len(p)>>8), byte(len(p)))
		buf = append(buf, p...)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

func expectAck(t *testing.T, conn net.Conn, in *wire.FrameReader, lsn uint64, within time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(within))
	for {
		payload, err := in.Next()
		if err != nil {
			t.Fatalf("no ack for lsn %d within %v: %v", lsn, within, err)
		}
		f, err := decodeFrame(payload)
		if err != nil || f.Op != rAck {
			t.Fatalf("follower sent %+v (%v); want an ack", f, err)
		}
		if f.LSN > lsn {
			t.Fatalf("follower acked lsn %d, beyond the %d it was sent", f.LSN, lsn)
		}
		if f.LSN == lsn {
			return
		}
	}
}

// TestRecordThenHeartbeatInOneReadIsAcked: the follower acknowledges
// once per drained read buffer whatever frame came last in it. Acking
// only when a record came last strands the ack of a record that shares
// its read with a heartbeat until the next record — which, at the end
// of a burst, never comes, and the publisher's quorum wait times out.
func TestRecordThenHeartbeatInOneReadIsAcked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peers := map[string]string{"lead": ln.Addr().String(), "f1": freeAddr(t)}
	cfg := fastConfig(t, "f1", t.TempDir(), peers, 2, 1)
	const heartbeat = 200 * time.Millisecond
	cfg.HeartbeatInterval, cfg.LeaseTimeout, cfg.ElectionTimeout = heartbeat, 5*time.Second, time.Minute
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.ackHook = func(acked, flushed uint64) bool {
		if acked > flushed {
			t.Errorf("ack %d beyond flushed %d", acked, flushed)
		}
		return true
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	conn, in := fakeLeader(t, ln)
	defer conn.Close()
	expectAck(t, conn, in, 0, 5*time.Second) // the empty snapshot's boundary

	record := func(lsn uint64) frame {
		return frame{Op: rRecord, LSN: lsn, Payload: []byte{1, 'x'}} // a topology record
	}
	heart := frame{Op: rHeart, Term: 1}
	mustWrite(t, conn, record(1), heart)
	expectAck(t, conn, in, 1, heartbeat)
	mustWrite(t, conn, heart, record(2), record(3), heart, heart)
	expectAck(t, conn, in, 3, heartbeat)
	mustWrite(t, conn, record(4))
	expectAck(t, conn, in, 4, heartbeat)
	// Heartbeats alone move nothing: no ack is owed, none is sent.
	mustWrite(t, conn, heart)
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if payload, err := in.Next(); err == nil {
		f, _ := decodeFrame(payload)
		t.Fatalf("a bare heartbeat was answered with %+v", f)
	}
	if got := n.LastLSN(); got != 4 {
		t.Fatalf("follower log at lsn %d, want 4", got)
	}
}

// TestFollowerKilledBetweenAppendAndAckKeepsEveryAnsweredRecord: a
// follower is cold-killed after it flushed a run of records and before
// it acknowledged them. Its directory — which promotion would open as
// the new leader's journal — must hold every message whose publish was
// answered OK up to that point: an OK answer means flushed on quorum-1
// followers, and the stream is ordered, so a follower flushed to X holds
// everything the leader journaled up to X.
func TestFollowerKilledBetweenAppendAndAckKeepsEveryAnsweredRecord(t *testing.T) {
	var (
		victim  atomic.Pointer[Node]
		reached = make(chan uint64, 1) // the LSN the victim flushed and never acked
		once    sync.Once
	)
	nodes := startClusterWith(t, 3, 2, func(n *Node) {
		n.ackHook = func(acked, flushed uint64) bool {
			if acked > flushed {
				t.Errorf("follower %s acks lsn %d with only %d flushed", n.ID(), acked, flushed)
			}
			if victim.Load() != n {
				return true
			}
			once.Do(func() { reached <- flushed })
			<-n.stopCh // frozen between flush and ack until the kill lands
			return false
		}
	})
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lb := leader.Broker()
	for _, err := range []error{
		lb.DeclareExchange("ex", broker.Direct),
		lb.DeclareQueue("q", broker.QueueOptions{Durable: true}),
		lb.Bind("q", "ex", "k"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := wire.Dial(leader.ClientAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var lsnAtMost []uint64 // lsnAtMost[i]: an upper bound on msg-i's LSN
	publish := func() {
		t.Helper()
		i := len(lsnAtMost)
		if err := c.Publish("ex", "k", nil, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		lsnAtMost = append(lsnAtMost, lb.LastLSN())
	}
	for i := 0; i < 20; i++ {
		publish()
	}
	v := alive(nodes, leader)[0]
	for deadline := time.Now().Add(5 * time.Second); v.LastLSN() < lb.LastLSN(); {
		if time.Now().After(deadline) { // quorum 2 lets one follower trail
			t.Fatalf("follower %s stuck at lsn %d of %d", v.ID(), v.LastLSN(), lb.LastLSN())
		}
		time.Sleep(time.Millisecond)
	}
	victim.Store(v)
	var flushedAtKill uint64
armed:
	for {
		publish() // answered OK through the other follower
		select {
		case flushedAtKill = <-reached:
			break armed
		default:
		}
		if len(lsnAtMost) > 2000 {
			t.Fatal("the victim never reached an ack")
		}
	}
	v.Kill()
	for i := 0; i < 10; i++ {
		publish()
	}

	// Promotion is opening the directory as a journal.
	pb, err := broker.NewDurable(nil, v.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	st, _ := pb.QueueStats("q") // before the consumer starts emptying it
	cons, err := pb.Consume("q", 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool)
	for i := 0; i < st.Ready; i++ {
		select {
		case d := <-cons.Deliveries():
			have[string(d.Body)] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out reading the promoted log at %d/%d", i, st.Ready)
		}
	}
	answered := 0
	for i, lsn := range lsnAtMost {
		if lsn > flushedAtKill {
			break
		}
		answered++
		if !have[fmt.Sprintf("msg-%d", i)] {
			t.Errorf("msg-%d (lsn <= %d) was answered OK but is missing from the follower flushed to %d", i, lsn, flushedAtKill)
		}
	}
	if answered < 20 {
		t.Fatalf("only %d publishes were at or below the kill point %d; the test armed too early", answered, flushedAtKill)
	}
	t.Logf("follower %s killed flushed to lsn %d, un-acked: %d answered publishes all present (%d messages in its log)",
		v.ID(), flushedAtKill, answered, len(have))
}
