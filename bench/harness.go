package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"bistream"
	"bistream/bench/gen"
	"bistream/bench/ref"
	"bistream/internal/broker"
	"bistream/internal/broker/replica"
	"bistream/internal/wire"
)

// Topology and engine settings shared by every workload. Everything
// not named here or in the workload is a library default.
const (
	numRouters  = 1
	numJoiners  = 2 // per relation
	entryBound  = 8192
	quiesceWait = time.Minute

	// Replica group shape of the wire workload. No delay is injected,
	// so latency there is processor plus loopback time only. The lease
	// is long on purpose: nothing here fails over, and on a two-core box
	// a follower starved for 100 ms must not start an election in the
	// middle of a measurement. The election timeout is set apart from it
	// so the first leader still emerges quickly.
	replicaNodes     = 3
	replicaQuorum    = 2
	replicaHeartbeat = 10 * time.Millisecond
	replicaLease     = 2 * time.Second
	replicaElection  = 100 * time.Millisecond
)

// sink collects every join result the engine hands to OnResult: the
// pair's identity and when it arrived. OnResult runs on the engine's
// single sink goroutine; n publishes each append to readers.
type sink struct {
	base  time.Time
	pairs []uint64
	at    []int64 // nanoseconds since base
	n     atomic.Int64
}

func newSink(capacity int) *sink {
	return &sink{base: time.Now(), pairs: make([]uint64, 0, capacity), at: make([]int64, 0, capacity)}
}

func (s *sink) onResult(jr bistream.JoinResult) {
	s.pairs = append(s.pairs, ref.PairKey(jr.Left.Seq, jr.Right.Seq))
	s.at = append(s.at, int64(time.Since(s.base)))
	s.n.Add(1)
}

// replicaGroup is a set of replica nodes on loopback with their data
// directories, owned by the benchmark.
type replicaGroup struct {
	nodes []*replica.Node
	dirs  []string
	addrs []string
}

// startReplicaGroup brings up size nodes at the given quorum with
// fresh directories under tmp and waits for a settled leader.
//
// Replication addresses must be known to every peer before any node
// listens, so they are probed and released first; on the rare occasion
// something else (an outgoing connection of this very process) takes a
// probed port in between, the whole group is started again.
func startReplicaGroup(tmp string, size, quorum int, seed int64) (*replicaGroup, error) {
	for attempt := 0; ; attempt++ {
		g, err := startReplicaGroupOnce(tmp, size, quorum, seed)
		if err == nil || attempt == 4 || !errors.Is(err, syscall.EADDRINUSE) {
			return g, err
		}
	}
}

func startReplicaGroupOnce(tmp string, size, quorum int, seed int64) (*replicaGroup, error) {
	g := &replicaGroup{}
	peers := make(map[string]string, size)
	ids := make([]string, size)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		peers[ids[i]] = ln.Addr().String()
		ln.Close()
	}
	for i, id := range ids {
		dir, err := os.MkdirTemp(tmp, "replica-")
		if err != nil {
			g.close()
			return nil, err
		}
		g.dirs = append(g.dirs, dir)
		n, err := replica.NewNode(replica.Config{
			ID: id, Dir: dir,
			ClientAddr: "127.0.0.1:0", ReplAddr: peers[id], Peers: peers,
			Quorum:            quorum,
			HeartbeatInterval: replicaHeartbeat,
			LeaseTimeout:      replicaLease,
			ElectionTimeout:   replicaElection,
			Seed:              seed*100 + int64(i+1),
		})
		if err == nil {
			err = n.Start()
		}
		if err != nil {
			g.close()
			return nil, err
		}
		g.nodes = append(g.nodes, n)
		g.addrs = append(g.addrs, n.ClientAddr().String())
	}
	if err := g.waitStable(10 * time.Second); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// waitStable waits until the group has settled on one leader: exactly
// one node leads, every node is in its term, and that has held for
// several election timeouts. WaitLeader alone returns on the first
// winner, and nodes started together can depose it a term later —
// resetting the client connection a measurement is using.
func (g *replicaGroup) waitStable(timeout time.Duration) error {
	const hold = 4 * replicaElection
	deadline := time.Now().Add(timeout)
	var leader *replica.Node
	var since time.Time
	for time.Now().Before(deadline) {
		var cur *replica.Node
		settled := true
		for _, n := range g.nodes {
			if n.IsLeader() {
				settled = settled && cur == nil
				cur = n
			}
		}
		for _, n := range g.nodes {
			settled = settled && cur != nil && n.Term() == cur.Term()
		}
		switch {
		case !settled:
			leader = nil
		case cur != leader:
			leader, since = cur, time.Now()
		case time.Since(since) >= hold:
			return nil
		}
		time.Sleep(replicaHeartbeat)
	}
	return fmt.Errorf("replica group did not settle on a leader within %v", timeout)
}

// connect dials the group with a leader-probing client.
func (g *replicaGroup) connect(seed int64) (*wire.Client, error) {
	return wire.Connect(wire.Config{
		Addrs:          g.addrs,
		Reconnect:      true,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           seed,
	})
}

// close kills every node (listeners and connections go with it) and
// removes the data directories.
func (g *replicaGroup) close() {
	for _, n := range g.nodes {
		n.Kill()
	}
	for _, d := range g.dirs {
		os.RemoveAll(d)
	}
}

// harness is one started engine and whatever it runs against.
type harness struct {
	eng    *bistream.Engine
	brk    *broker.Broker // in-process workloads
	group  *replicaGroup  // wire workloads
	client *wire.Client
}

// setUp builds the workload's engine through the public API, starts
// it, and ingests the warm-up prefix of the stream until quiescent.
func setUp(w *gen.Workload, st *gen.Stream, warmup int, snk *sink, tmp string, seed int64) (*harness, error) {
	h := &harness{}
	var client broker.Client
	if w.Wire {
		g, err := startReplicaGroup(tmp, replicaNodes, replicaQuorum, seed)
		if err != nil {
			return nil, err
		}
		h.group = g
		if h.client, err = g.connect(seed); err != nil {
			h.close()
			return nil, err
		}
		client = h.client
	} else {
		// The engine's private broker, built here so the layer sampler
		// can read its QueueStats; the engine drives it identically.
		h.brk = broker.New(nil)
		client = h.brk
	}
	// Over one wire connection a bounded entry queue deadlocks: the
	// server handles a connection's requests in order, so a Publish
	// parked on the full queue blocks the router's Ack behind it — the
	// very ack that would make room. There every Ingest is a synchronous
	// quorum commit, which is backpressure enough.
	bound := entryBound
	if w.Wire {
		bound = 0
	}
	eng, err := bistream.New(
		bistream.Config{Predicate: w.Predicate(), ContRand: w.ContRand},
		bistream.WithWindow(w.Window),
		bistream.WithRouters(numRouters),
		bistream.WithJoiners(numJoiners, numJoiners),
		bistream.WithTraceSample(-1),
		bistream.WithEntryBound(bound),
		bistream.WithOnResult(snk.onResult),
		bistream.WithBroker(client),
	)
	if err == nil {
		err = eng.Start()
	}
	if err != nil {
		h.close()
		return nil, err
	}
	h.eng = eng
	for i := 0; i < warmup; i++ {
		if err := eng.Ingest(st.Tuple(i)); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up ingest: %w", err)
		}
	}
	if err := h.quiesce(snk); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// quiesce waits until the engine has drained and the sink has seen
// every result the engine counted (Engine.Quiesce can return while the
// last OnResult call is still running).
func (h *harness) quiesce(snk *sink) error {
	if err := h.eng.Quiesce(quiesceWait); err != nil {
		return err
	}
	want := h.eng.Snapshot().Results
	for deadline := time.Now().Add(quiesceWait); snk.n.Load() < want; {
		if time.Now().After(deadline) {
			return fmt.Errorf("sink saw %d of %d results", snk.n.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops the engine and everything under it. Every goroutine,
// listener and directory the harness created is gone when it returns.
func (h *harness) close() {
	if h.eng != nil {
		h.eng.Stop()
	}
	if h.client != nil {
		h.client.Close()
	}
	if h.brk != nil {
		h.brk.Close()
	}
	if h.group != nil {
		h.group.close()
	}
}
