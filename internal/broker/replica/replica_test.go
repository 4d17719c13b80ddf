package replica

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/wire"
)

// freeAddr reserves a loopback port and releases it, returning an
// address a node can (very probably) bind a moment later.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// fastConfig returns aggressive timings so elections settle in tens of
// milliseconds instead of seconds.
func fastConfig(t *testing.T, id, dir string, peers map[string]string, quorum int, seed int64) Config {
	return Config{
		ID:                id,
		Dir:               dir,
		ClientAddr:        "127.0.0.1:0",
		ReplAddr:          peers[id],
		Peers:             peers,
		Quorum:            quorum,
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      60 * time.Millisecond,
		ElectionTimeout:   90 * time.Millisecond,
		DialTimeout:       100 * time.Millisecond,
		AckTimeout:        2 * time.Second,
		MaxSegmentBytes:   4096, // small segments so tests exercise rollover
		Seed:              seed,
		Logf:              t.Logf,
	}
}

// startCluster brings up size nodes with pre-agreed replication addrs.
// Every node checks, at every ack it sends as a follower, that the ack
// does not run ahead of what its log has flushed.
func startCluster(t *testing.T, size, quorum int) []*Node {
	t.Helper()
	return startClusterWith(t, size, quorum, func(n *Node) {
		n.ackHook = func(acked, flushed uint64) bool {
			if acked > flushed {
				t.Errorf("follower %s acks lsn %d with only %d flushed", n.ID(), acked, flushed)
			}
			return true
		}
	})
}

// startClusterWith is startCluster with prepare applied to each node
// before it starts (the place to install test hooks).
func startClusterWith(t *testing.T, size, quorum int, prepare func(*Node)) []*Node {
	t.Helper()
	peers := make(map[string]string, size)
	ids := make([]string, 0, size)
	for i := 0; i < size; i++ {
		id := fmt.Sprintf("n%d", i+1)
		ids = append(ids, id)
		peers[id] = freeAddr(t)
	}
	nodes := make([]*Node, 0, size)
	for i, id := range ids {
		n, err := NewNode(fastConfig(t, id, t.TempDir(), peers, quorum, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		prepare(n)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Kill)
		nodes = append(nodes, n)
	}
	return nodes
}

// alive filters out killed nodes.
func alive(nodes []*Node, dead *Node) []*Node {
	out := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if n != dead {
			out = append(out, n)
		}
	}
	return out
}

func TestProtocolRoundTrip(t *testing.T) {
	frames := []frame{
		{Op: rJoin, ID: "n1", Term: 3, LSN: 42},
		{Op: rWelcome, Term: 3, ID: "leader"},
		{Op: rNotLeader, Term: 9},
		{Op: rRecord, LSN: 7, Topic: "q", Payload: []byte{1, 2, 3}},
		{Op: rRecord, LSN: 8, Topic: "", Payload: nil},
		{Op: rSnapEnd, LSN: 11},
		{Op: rHeart, Term: 4, LSN: 100},
		{Op: rAck, LSN: 12},
		{Op: rVoteReq, ID: "cand", Term: 5, LSN: 77},
		{Op: rVoteResp, Term: 5, Granted: true},
		{Op: rVoteResp, Term: 6, Granted: false},
	}
	for _, want := range frames {
		got, err := decodeFrame(encodeFrame(want))
		if err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if got.Op != want.Op || got.Term != want.Term || got.LSN != want.LSN ||
			got.ID != want.ID || got.Topic != want.Topic || got.Granted != want.Granted {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if string(got.Payload) != string(want.Payload) {
			t.Fatalf("payload: got %q, want %q", got.Payload, want.Payload)
		}
	}
	if _, err := decodeFrame(nil); err == nil {
		t.Fatal("empty frame decoded")
	}
	if _, err := decodeFrame([]byte{0x7f}); err == nil {
		t.Fatal("unknown opcode decoded")
	}
}

// TestSingleNodeLeadsAndServes: a group of one elects itself and
// serves publishes immediately (quorum 1 needs no follower acks).
func TestSingleNodeLeadsAndServes(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := leader.Broker()
	if err := b.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", broker.QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("ex", "k", nil, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	st, err := b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 1 {
		t.Fatalf("ready = %d, want 1", st.Ready)
	}
}

// TestReplicationCatchesUp: in a group of three, everything the leader
// journals shows up on both followers' logs.
func TestReplicationCatchesUp(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := leader.Broker()
	if err := b.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", broker.QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := b.Publish("ex", "k", nil, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	want := leader.LastLSN()
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range alive(nodes, leader) {
		for n.LastLSN() < want {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s stuck at lsn %d, want %d", n.ID(), n.LastLSN(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestFailoverNoAckedLoss is the headline guarantee: kill the leader
// after a batch of acknowledged publishes and every one of them must
// be consumable from the promoted follower.
func TestFailoverNoAckedLoss(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 0, len(nodes))
	for _, n := range nodes {
		addrs = append(addrs, n.ClientAddr().String())
	}
	c, err := wire.Connect(wire.Config{
		Addrs:          addrs,
		Reconnect:      true,
		DialTimeout:    time.Second,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     25 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareQueue("q", broker.QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	publish := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			body := []byte(fmt.Sprintf("msg-%d", i))
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := c.Publish("ex", "k", nil, body)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("publish %d never succeeded: %v", i, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	publish(0, 30)

	leader.Kill()
	promoted, err := WaitLeader(alive(nodes, leader), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("promoted %s in term %d", promoted.ID(), promoted.Term())
	publish(30, 60)

	cons, err := c.Consume("q", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	deadline := time.After(15 * time.Second)
	for len(got) < 60 {
		select {
		case d, ok := <-cons.Deliveries():
			if !ok {
				// Consumer dropped by a reconnect; re-attach happens via
				// the client, so just re-open it.
				cons, err = c.Consume("q", 0, false)
				if err != nil {
					t.Fatal(err)
				}
				continue
			}
			got[string(d.Body)] = true
			_ = cons.Ack(d.Tag)
		case <-deadline:
			t.Fatalf("timed out with %d/60 distinct messages", len(got))
		}
	}
	for i := 0; i < 60; i++ {
		if !got[fmt.Sprintf("msg-%d", i)] {
			t.Errorf("acked message msg-%d lost in failover", i)
		}
	}
}

// TestPublishFailsWithoutQuorum: with Quorum equal to the full group
// size, killing the followers must make publishes fail rather than
// silently under-replicate.
func TestPublishFailsWithoutQuorum(t *testing.T) {
	nodes := startCluster(t, 3, 3)
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := leader.Broker()
	if err := b.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", broker.QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	// Let both followers attach, then verify a publish clears the full
	// quorum.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = b.Publish("ex", "k", nil, []byte("pre")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish with full quorum: %v", err)
		}
	}
	for _, n := range alive(nodes, leader) {
		n.Kill()
	}
	// AckTimeout in fastConfig is 2s; the gate must reject, not hang.
	start := time.Now()
	if err := b.Publish("ex", "k", nil, []byte("orphan")); err == nil {
		t.Fatal("publish succeeded without quorum")
	} else if time.Since(start) > 10*time.Second {
		t.Fatalf("gate took %v to fail", time.Since(start))
	}
}

// TestTermSurvivesRestart: the persisted term must carry across a kill
// and restart so the node can never regress to an older term, and a
// previously acknowledged message must still be there after reopening.
func TestTermSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	addr := freeAddr(t)
	peers := map[string]string{"solo": addr}
	cfg := fastConfig(t, "solo", dir, peers, 1, 7)
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	leader, err := WaitLeader([]*Node{n}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := leader.Broker()
	if err := b.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", broker.QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("ex", "k", nil, []byte("persist-me")); err != nil {
		t.Fatal(err)
	}
	term := n.Term()
	n.Kill()

	var n2 *Node
	deadline := time.Now().Add(5 * time.Second)
	for {
		n2, err = NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err = n2.Start(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart never bound %s: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Cleanup(n2.Kill)
	if got := n2.Term(); got < term {
		t.Fatalf("term regressed across restart: %d < %d", got, term)
	}
	leader2, err := WaitLeader([]*Node{n2}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if leader2.Term() <= term {
		t.Fatalf("restarted leader term %d, want > %d", leader2.Term(), term)
	}
	st, err := leader2.Broker().QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 1 {
		t.Fatalf("ready after restart = %d, want 1", st.Ready)
	}
}

// TestVoteRefusedToLaggingCandidate checks the LSN half of the vote
// rule directly: a node never hands leadership to a peer that knows
// less than it does.
func TestVoteRefusedToLaggingCandidate(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := leader.Broker()
	if err := b.DeclareExchange("ex", broker.Fanout); err != nil {
		t.Fatal(err)
	}
	last := leader.LastLSN()
	if last == 0 {
		t.Fatal("expected a journaled record")
	}
	term := leader.Term()
	if _, granted := leader.onVoteRequest(frame{Op: rVoteReq, ID: "lagger", Term: term + 1, LSN: last - 1}); granted {
		t.Fatal("vote granted to a lagging candidate")
	}
	if _, granted := leader.onVoteRequest(frame{Op: rVoteReq, ID: "caughtup", Term: term + 2, LSN: last}); !granted {
		t.Fatal("vote refused to a caught-up candidate")
	}
}

// TestVoteRefusedWhileLogChangesHands: a node that won an election
// closes its follower log and replays the journal into a broker, and
// for that long holds neither. It must still answer a vote request
// with the frontier it had: reporting 0 let a candidate seven records
// behind collect the vote of the very node that had just won with the
// longer log, and the group elected away records a quorum had
// committed (TestEngineExactlyOnceAcrossLeaderFailover lost pairs).
func TestVoteRefusedWhileLogChangesHands(t *testing.T) {
	peers := map[string]string{"n1": freeAddr(t), "n3": freeAddr(t)}
	n, err := NewNode(fastConfig(t, "n1", t.TempDir(), peers, 2, 1)) // never started: no log open
	if err != nil {
		t.Fatal(err)
	}
	n.term, n.votedFor, n.handoverLSN = 2, "n1", 1112
	if _, granted := n.onVoteRequest(frame{Op: rVoteReq, ID: "n3", Term: 3, LSN: 1105}); granted {
		t.Fatal("vote granted to a lagging candidate while no log was open")
	}
	if _, granted := n.onVoteRequest(frame{Op: rVoteReq, ID: "n3", Term: 4, LSN: 1112}); !granted {
		t.Fatal("vote refused to a caught-up candidate while no log was open")
	}
}
