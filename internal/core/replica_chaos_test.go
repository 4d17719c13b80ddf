package core

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/broker/replica"
	"bistream/internal/faults"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/wire"
)

// reserveAddr grabs and releases a loopback port so a replica node can
// bind it a moment later; the peer set needs addresses up front.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startReplicaGroup brings up size replica nodes with chaos-friendly
// timings and returns them along with their client addresses.
func startReplicaGroup(t *testing.T, size int, seed int64) ([]*replica.Node, []string) {
	t.Helper()
	peers := make(map[string]string, size)
	ids := make([]string, 0, size)
	for i := 0; i < size; i++ {
		id := fmt.Sprintf("n%d", i+1)
		ids = append(ids, id)
		peers[id] = reserveAddr(t)
	}
	nodes := make([]*replica.Node, 0, size)
	clientAddrs := make([]string, 0, size)
	for i, id := range ids {
		n, err := replica.NewNode(replica.Config{
			ID:                id,
			Dir:               t.TempDir(),
			ClientAddr:        "127.0.0.1:0",
			ReplAddr:          peers[id],
			Peers:             peers,
			Quorum:            2,
			HeartbeatInterval: 10 * time.Millisecond,
			LeaseTimeout:      100 * time.Millisecond,
			ElectionTimeout:   150 * time.Millisecond,
			AckTimeout:        5 * time.Second,
			MaxSegmentBytes:   64 << 10, // roll segments during the run
			Seed:              seed*100 + int64(i+1),
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Kill)
		nodes = append(nodes, n)
		clientAddrs = append(clientAddrs, n.ClientAddr().String())
	}
	return nodes, clientAddrs
}

// TestEngineExactlyOnceAcrossLeaderFailover is the broker-SPOF chaos
// test: the engine runs a windowed stream join against a three-node
// replica group through a faulty fabric (drops, duplicates, delays,
// entry reordering, and two full partitions), and the replica leader is
// cold-killed mid-join. The surviving followers elect the most
// caught-up replica, the multi-address wire client re-probes its way to
// it, and the join must still come out exactly once — every
// acknowledged tuple joined, no result duplicated or lost.
func TestEngineExactlyOnceAcrossLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second replica failover chaos run")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runReplicaFailoverChaos(t, seed)
		})
	}
}

func runReplicaFailoverChaos(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg := metrics.NewRegistry()
	nodes, clientAddrs := startReplicaGroup(t, 3, seed)
	if _, err := replica.WaitLeader(nodes, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	client, err := wire.Connect(wire.Config{
		Addrs:          clientAddrs,
		Reconnect:      true,
		DialTimeout:    time.Second,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Seed:           seed,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f := faults.Wrap(client, faults.Config{
		Seed:    seed,
		Metrics: reg,
		Default: faults.Rule{Drop: 0.03, Dup: 0.03, Delay: 0.05, MaxDelay: time.Millisecond},
		PerExchange: map[string]faults.Rule{
			topo.EntryExchange: {Drop: 0.03, Dup: 0.03, Reorder: 0.05},
		},
	})

	pred := predicate.NewEqui(0, 0)
	col := newCollector()
	e := startEngine(t, Config{
		Predicate: pred,
		Window:    time.Minute,
		Routers:   2,
		RJoiners:  2,
		SJoiners:  2,
		Shards:    3,
		Broker:    f,
		Metrics:   reg,
	}, col)

	deadline := time.Now().Add(120 * time.Second)
	var rs, ss []*tuple.Tuple
	seq := uint64(1)
	ingestBatch := func(n int) {
		for i := 0; i < n; i++ {
			ts := int64(len(rs)+len(ss)) * 5
			r := tuple.New(tuple.R, seq, ts, tuple.Int(rng.Int63n(20)))
			seq++
			s := tuple.New(tuple.S, seq, ts, tuple.Int(rng.Int63n(20)))
			seq++
			rs, ss = append(rs, r), append(ss, s)
			ingestRetry(t, e, r, deadline)
			ingestRetry(t, e, s, deadline)
		}
	}

	var killed *replica.Node
	for round := 0; round < 5; round++ {
		ingestBatch(20)
		switch round {
		case 1:
			f.Cut(50 * time.Millisecond)
		case 2:
			// The tentpole event: cold-kill the broker leader mid-join.
			leader, err := replica.WaitLeader(nodes, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			killed = leader
			t.Logf("cold-killing leader %s (term %d, lsn %d)", leader.ID(), leader.Term(), leader.LastLSN())
			leader.Kill()
		case 3:
			// Partition while the group is one node down.
			f.Cut(50 * time.Millisecond)
		}
	}

	promoted, err := replica.WaitLeader(alive(nodes, killed), 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if promoted == killed {
		t.Fatal("killed leader still reported as leader")
	}
	t.Logf("promoted %s (term %d, lsn %d)", promoted.ID(), promoted.Term(), promoted.LastLSN())

	f.Disable()
	if err := f.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := e.Quiesce(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Nothing may have been dead-lettered, and the entry queue must have
	// fully drained on the promoted broker — losses would otherwise be
	// indistinguishable from in-flight work.
	if pb := promoted.Broker(); pb != nil {
		if st, err := pb.QueueStats(broker.DeadQueue); err == nil && st.Ready > 0 {
			t.Errorf("%d messages dead-lettered during failover", st.Ready)
		}
		if st, err := pb.QueueStats(topo.EntryQueue); err != nil || st.Ready != 0 {
			t.Errorf("entry queue not drained on promoted broker: %+v (err %v)", st, err)
		}
	}
	verifyExactlyOnce(t, col.snapshot(), refJoin(rs, ss, pred, 60_000), "replica-failover")

	// The run must have exercised both the fault machinery and an actual
	// client failover.
	counter := func(name string) int64 {
		v, _ := reg.Value(name)
		return int64(v)
	}
	if counter("faults.drop") == 0 || counter("faults.dup") == 0 {
		t.Errorf("fault injection did not fire: drop=%d dup=%d",
			counter("faults.drop"), counter("faults.dup"))
	}
	if client.Generation() < 2 {
		t.Errorf("client generation %d: no reconnect happened, failover untested", client.Generation())
	}
}

// alive filters the killed node out of the group.
func alive(nodes []*replica.Node, dead *replica.Node) []*replica.Node {
	out := make([]*replica.Node, 0, len(nodes))
	for _, n := range nodes {
		if n != dead {
			out = append(out, n)
		}
	}
	return out
}
