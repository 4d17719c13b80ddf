// Package replica turns a set of brokerd processes into a replicated
// broker group with leader failover, removing the single-broker SPOF
// from the BiStream deployment. One node at a time is the leader: it
// opens the durable journal as a live broker (broker.NewDurable),
// serves clients through its wire.Server, and streams every flushed
// journal record to the followers, acknowledging publishes only once a
// configurable quorum of replicas holds them. The stream is group
// committed end to end: the leader writes whatever its journal tap
// holds in one socket write, a follower appends the whole run it has
// read with one flush per touched segment and acknowledges its flushed
// high-water LSN once, and the leader folds those acks into a monotone
// commit LSN that publishers wait on. Followers mirror the
// leader's segmented log byte-for-byte (broker.FollowerLog), so
// promotion is nothing more than reopening the local data directory as
// a broker. Failover uses term-numbered elections in the Raft style:
// a follower whose replication lease expires stands as a candidate,
// and peers grant their vote only to candidates at least as caught up
// (by last LSN) as themselves, which steers leadership to the
// most-caught-up replica and never loses an acknowledged publish when
// a quorum survives.
package replica

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bistream/internal/broker"
	"bistream/internal/metrics"
	"bistream/internal/wire"
)

// Role is a node's position in the group at a point in time.
type Role int

// The three node roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String names the role for logs and /metrics labels.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "unknown"
	}
}

// Config describes one member of a replica group.
type Config struct {
	// ID uniquely names this node within the group.
	ID string
	// Dir is the broker data directory (journal segments, term file).
	Dir string
	// ClientAddr is the listen address for the client wire protocol.
	// The node serves broker.ErrNotLeader there until it is elected.
	ClientAddr string
	// ReplAddr is the listen address for replication and votes.
	ReplAddr string
	// Peers maps node ID to replication address for every group member;
	// this node's own entry is ignored if present. Membership is static.
	Peers map[string]string
	// Quorum is how many replicas (including the leader) must hold a
	// record before its publish is acknowledged. Zero means a majority
	// of the group.
	Quorum int
	// HeartbeatInterval is the leader's keep-alive cadence. Default 25ms.
	HeartbeatInterval time.Duration
	// LeaseTimeout is how long a follower tolerates silence from its
	// leader before abandoning the stream. Default 150ms.
	LeaseTimeout time.Duration
	// ElectionTimeout is the base wait before standing for election once
	// no leader is reachable; the actual wait is randomized in
	// [1x, 2x) to break ties. Default = 2 * LeaseTimeout.
	ElectionTimeout time.Duration
	// DialTimeout bounds peer dials. Default 250ms.
	DialTimeout time.Duration
	// AckTimeout bounds how long a publish waits for quorum. Default 5s.
	AckTimeout time.Duration
	// MaxSegmentBytes is the journal segment rollover size (0 = default).
	MaxSegmentBytes int64
	// Seed randomizes election jitter; 0 derives one from ID.
	Seed int64
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
	// Metrics, when set, receives replica.* counters and gauges.
	Metrics *metrics.Registry
}

// followerState is the leader's view of one attached follower session.
type followerState struct {
	id    string
	term  uint64 // the reign the session belongs to
	acked uint64 // the follower's flushed high-water LSN
}

// idAck is one distinct follower's highest ack, for the commit rule.
type idAck struct {
	id  string
	lsn uint64
}

// maxApplyRun bounds how many records a follower gathers before it
// applies and acknowledges them even though more are already buffered:
// a snapshot of any size is applied in runs of this many.
const maxApplyRun = 1024

// Node is one member of a replica group. Create with NewNode, bring up
// with Start, and tear down with Kill; the node elects itself into the
// leader or follower role on its own.
type Node struct {
	cfg         Config
	peers       map[string]string // excluding self
	peerIDs     []string          // sorted, excluding self
	clusterSize int

	srv        *wire.Server
	clientAddr net.Addr
	replLn     net.Listener
	replAddr   net.Addr

	mu         sync.Mutex
	ackCond    *sync.Cond // term or stop changed: wakes the leader loop
	commitCond *sync.Cond // commitLSN advanced (or term/stop): wakes commit waiters
	roleVal    Role
	term       uint64
	votedFor   string
	leaderTerm uint64 // term of our own most recent election win
	leaderID   string // last observed leader (self when leading)
	b          *broker.Broker
	flog       *broker.FollowerLog
	// handoverLSN is the frontier of the log that was closed last, for
	// the moments when neither b nor flog is open; see lastLSNLocked.
	handoverLSN uint64
	followers   map[*followerState]struct{}
	// commitLSN is the (quorum-1)-th highest ack over the distinct
	// followers of this reign: every record up to it is flushed on the
	// leader and on quorum-1 followers. It only moves forward within a
	// reign and restarts from zero at each promotion.
	commitLSN  uint64
	ackScratch []idAck
	conns      map[net.Conn]struct{}
	stopped    bool

	// ackHook, when set (tests only, before Start), sees every ack a
	// follower is about to send next to the LSN its log is flushed to;
	// returning false suppresses the ack, as a crash at that point would.
	ackHook func(acked, flushed uint64) bool

	recordsApplied  *metrics.Counter
	recordsStreamed *metrics.Counter
	recordsPerAck   *metrics.Histogram
	commitGauge     *metrics.Gauge

	stopCh   chan struct{}
	wg       sync.WaitGroup
	rng      *rand.Rand
	probeIdx int
}

// NewNode validates cfg, fills defaults, and returns an idle node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("replica: Config.ID is required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("replica: Config.Dir is required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 25 * time.Millisecond
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 150 * time.Millisecond
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 2 * cfg.LeaseTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 250 * time.Millisecond
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(cfg.ID))
		seed = int64(h.Sum64())
	}
	peers := make(map[string]string)
	ids := make([]string, 0, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		if id == cfg.ID {
			continue
		}
		peers[id] = addr
		ids = append(ids, id)
	}
	sort.Strings(ids)
	n := &Node{
		cfg:         cfg,
		peers:       peers,
		peerIDs:     ids,
		clusterSize: len(peers) + 1,
		followers:   make(map[*followerState]struct{}),
		conns:       make(map[net.Conn]struct{}),
		stopCh:      make(chan struct{}),
		rng:         rand.New(rand.NewSource(seed)),
	}
	n.ackCond = sync.NewCond(&n.mu)
	n.commitCond = sync.NewCond(&n.mu)
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry() // private: the hot-path handles stay non-nil
	}
	n.recordsApplied = reg.Counter("replica.records_applied")
	n.recordsStreamed = reg.Counter("replica.records_streamed")
	n.recordsPerAck = reg.Histogram("replica.records_per_ack")
	n.commitGauge = reg.Gauge("replica.commit_lsn")
	if cfg.Quorum <= 0 {
		n.cfg.Quorum = n.clusterSize/2 + 1
	}
	if n.cfg.Quorum > n.clusterSize {
		return nil, fmt.Errorf("replica: quorum %d exceeds group size %d", n.cfg.Quorum, n.clusterSize)
	}
	return n, nil
}

// Start opens the data directory, binds both listeners, and launches
// the role state machine as a follower.
func (n *Node) Start() error {
	if err := os.MkdirAll(n.cfg.Dir, 0o755); err != nil {
		return err
	}
	if err := n.loadTerm(); err != nil {
		return err
	}
	fl, err := broker.OpenFollowerLog(n.cfg.Dir, n.cfg.MaxSegmentBytes)
	if err != nil {
		return err
	}
	n.flog = fl
	n.srv = wire.NewServer(nil, n.cfg.Logf)
	n.srv.SetMetrics(n.cfg.Metrics)
	ca, err := n.srv.Listen(n.cfg.ClientAddr)
	if err != nil {
		fl.Close()
		return err
	}
	n.clientAddr = ca
	ln, err := net.Listen("tcp", n.cfg.ReplAddr)
	if err != nil {
		n.srv.Close()
		fl.Close()
		return err
	}
	n.replLn = ln
	n.replAddr = ln.Addr()
	n.logf("replica %s: up (clients %v, repl %v, group %d, quorum %d, term %d)",
		n.cfg.ID, n.clientAddr, n.replAddr, n.clusterSize, n.cfg.Quorum, n.term)
	n.wg.Add(2)
	go n.acceptLoop()
	go n.run()
	return nil
}

// Kill stops the node abruptly: listeners and connections are closed
// and the role loop exits. The data directory survives for a restart
// (a fresh NewNode on the same Dir).
func (n *Node) Kill() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stopCh)
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.ackCond.Broadcast()
	n.commitCond.Broadcast()
	n.mu.Unlock()
	if n.replLn != nil {
		n.replLn.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
}

// ID returns the node's configured identity.
func (n *Node) ID() string { return n.cfg.ID }

// ClientAddr is the bound client wire address (useful with ":0").
func (n *Node) ClientAddr() net.Addr { return n.clientAddr }

// ReplAddr is the bound replication address.
func (n *Node) ReplAddr() net.Addr { return n.replAddr }

// Role reports the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.roleVal
}

// Term reports the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// IsLeader reports whether the node is currently the live leader.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.stopped && n.roleVal == Leader && n.b != nil
}

// Broker returns the node's broker while it leads, else nil.
func (n *Node) Broker() *broker.Broker {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.b
}

// LastLSN reports the node's replication frontier regardless of role.
func (n *Node) LastLSN() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastLSNLocked()
}

// WaitLeader polls until exactly one live node leads and returns it.
func WaitLeader(nodes []*Node, timeout time.Duration) (*Node, error) {
	deadline := time.Now().Add(timeout)
	for {
		var leader *Node
		count := 0
		for _, nd := range nodes {
			if nd.IsLeader() {
				leader = nd
				count++
			}
		}
		if count == 1 {
			return leader, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replica: %d leaders after %v, want 1", count, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- persistence of (term, votedFor) ---

func (n *Node) termPath() string { return filepath.Join(n.cfg.Dir, "term") }

func (n *Node) loadTerm() error {
	data, err := os.ReadFile(n.termPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	fields := strings.Fields(string(data))
	if len(fields) >= 1 {
		t, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("replica: corrupt term file: %w", err)
		}
		n.term = t
	}
	if len(fields) >= 2 {
		n.votedFor = fields[1]
	}
	return nil
}

func (n *Node) persistTermLocked() {
	data := fmt.Sprintf("%d %s\n", n.term, n.votedFor)
	if err := os.WriteFile(n.termPath(), []byte(data), 0o644); err != nil {
		n.logf("replica %s: persisting term: %v", n.cfg.ID, err)
	}
}

// bumpTermLocked adopts a higher term, clearing the vote and waking the
// leader loop so it steps down, and the commit waiters so they fail.
func (n *Node) bumpTermLocked(term uint64) {
	n.term = term
	n.votedFor = ""
	n.persistTermLocked()
	n.ackCond.Broadcast()
	n.commitCond.Broadcast()
}

func (n *Node) adoptTerm(term uint64) {
	n.mu.Lock()
	if term > n.term {
		n.bumpTermLocked(term)
	}
	n.mu.Unlock()
}

// lastLSNLocked reads the replication frontier from whichever log the
// node currently holds open. While the log changes hands — the follower
// log closed and the journal not yet replayed into a leader's broker,
// or the reverse on stepping down — neither is open and the frontier is
// what the closing side held: answering 0 there would grant a vote to
// any candidate, however far behind, and elect away committed records.
func (n *Node) lastLSNLocked() uint64 {
	if n.b != nil {
		return n.b.LastLSN()
	}
	if n.flog != nil {
		return n.flog.LastLSN()
	}
	return n.handoverLSN
}

// --- role state machine ---

func (n *Node) run() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			break
		}
		r := n.roleVal
		n.mu.Unlock()
		switch r {
		case Follower:
			n.runFollower()
		case Candidate:
			n.runCandidate()
		case Leader:
			n.runLeader()
		}
	}
	n.mu.Lock()
	b := n.b
	n.b = nil
	fl := n.flog
	n.flog = nil
	n.mu.Unlock()
	if b != nil {
		b.SetCommitGate(nil)
		b.Close()
	}
	if fl != nil {
		fl.Close()
	}
}

func (n *Node) isStopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

func (n *Node) setRole(r Role) {
	n.mu.Lock()
	n.roleVal = r
	n.mu.Unlock()
}

// electionTimeout randomizes in [base, 2*base) to break election ties.
// Called only from the run goroutine, which keeps rng single-threaded.
func (n *Node) electionTimeout() time.Duration {
	base := n.cfg.ElectionTimeout
	return base + time.Duration(n.rng.Int63n(int64(base)))
}

// runFollower hunts for a leader and mirrors its stream. Every spell of
// successful streaming resets the election countdown; when the
// countdown lapses with no leader in reach, the node stands.
func (n *Node) runFollower() {
	deadline := time.Now().Add(n.electionTimeout())
	for {
		if n.isStopped() {
			return
		}
		if time.Now().After(deadline) {
			n.setRole(Candidate)
			return
		}
		if n.followOnce() {
			// We held a live stream until just now; restart the clock.
			deadline = time.Now().Add(n.electionTimeout())
			continue
		}
		select {
		case <-n.stopCh:
			return
		case <-time.After(n.cfg.HeartbeatInterval):
		}
	}
}

// followOnce probes the peer set for the current leader and, if found,
// streams from it until the connection or lease breaks. It reports
// whether any replication traffic was received.
func (n *Node) followOnce() bool {
	if len(n.peerIDs) == 0 {
		return false
	}
	start := n.probeIdx
	n.probeIdx++
	for i := range n.peerIDs {
		if n.isStopped() {
			return false
		}
		id := n.peerIDs[(start+i)%len(n.peerIDs)]
		conn, err := net.DialTimeout("tcp", n.peers[id], n.cfg.DialTimeout)
		if err != nil {
			continue
		}
		if !n.trackConn(conn) {
			return false
		}
		got := n.joinAndStream(conn)
		n.dropConn(conn)
		if got {
			return true
		}
	}
	return false
}

func (n *Node) joinAndStream(conn net.Conn) bool {
	n.mu.Lock()
	term := n.term
	last := n.lastLSNLocked()
	n.mu.Unlock()
	if err := n.writeConnFrame(conn, frame{Op: rJoin, ID: n.cfg.ID, Term: term, LSN: last}); err != nil {
		return false
	}
	in := wire.NewFrameReader(conn)
	conn.SetReadDeadline(time.Now().Add(2 * n.cfg.LeaseTimeout))
	payload, err := in.Next()
	if err != nil {
		return false
	}
	f, err := decodeFrame(payload)
	if err != nil {
		return false
	}
	switch f.Op {
	case rNotLeader:
		n.adoptTerm(f.Term)
		return false
	case rWelcome:
		n.mu.Lock()
		if f.Term < n.term {
			n.mu.Unlock()
			return false // stale leader from an old term
		}
		if f.Term > n.term {
			n.bumpTermLocked(f.Term)
		}
		n.leaderID = f.ID
		n.mu.Unlock()
		return n.streamFrom(conn, in, f.ID)
	default:
		return false
	}
}

// streamFrom wipes the local log and mirrors the leader: snapshot
// records, the snapshot boundary, then live records. Records are not
// applied one by one: the follower gathers every record its read buffer
// holds, appends the run with one flush per touched segment
// (FollowerLog.AppendBatch), and then acknowledges the LSN its log is
// now flushed to — one ack per drained read buffer, whatever kind of
// frame came last in it, so that a record followed by a heartbeat in the
// same read is acknowledged as promptly as one that came alone. The ack
// is thus never above what is flushed, nor above what arrived: the log
// only holds what this session received, in stream order.
//
// A lease-length silence, a stale-term heartbeat, or any error ends the
// session. Reports whether at least one frame arrived.
func (n *Node) streamFrom(conn net.Conn, in *wire.FrameReader, leaderID string) bool {
	n.mu.Lock()
	fl := n.flog
	n.mu.Unlock()
	if fl == nil {
		return false
	}
	if err := fl.Reset(); err != nil {
		n.logf("replica %s: resync reset: %v", n.cfg.ID, err)
		return false
	}
	n.count("replica.resyncs")
	n.logf("replica %s: syncing from leader %s", n.cfg.ID, leaderID)
	out := wire.NewFrameWriter(conn, 2*n.cfg.LeaseTimeout, n.cfg.Metrics)
	var (
		topics   = make(map[string]string)
		run      []broker.ReplRecord // read, not yet applied
		acked    uint64
		ackDue   bool      // the snapshot boundary is acknowledged even when empty
		armed    time.Time // when the lease deadline was last pushed out
		received bool
	)
	for {
		if n.isStopped() {
			return received
		}
		// The lease runs from the last frame; pushing the deadline out
		// once per eighth of it, not per frame, keeps any read at least
		// seven eighths of a lease.
		if now := time.Now(); now.Sub(armed) > n.cfg.LeaseTimeout/8 {
			armed = now
			conn.SetReadDeadline(now.Add(n.cfg.LeaseTimeout))
		}
		payload, err := in.Next()
		if err != nil {
			return received
		}
		f, err := decodeInterned(payload, topics)
		if err != nil {
			return received
		}
		received = true
		switch f.Op {
		case rRecord:
			run = append(run, broker.ReplRecord{LSN: f.LSN, Topic: f.Topic, Payload: f.Payload})
		case rSnapEnd:
			ackDue = true
		case rHeart:
			n.mu.Lock()
			stale := f.Term < n.term
			if f.Term > n.term {
				n.bumpTermLocked(f.Term)
			}
			n.mu.Unlock()
			if stale {
				return received // a higher term exists; abandon this leader
			}
		default: // rNotLeader included
			return received
		}
		if !in.Drained() && len(run) < maxApplyRun {
			continue
		}
		flushed, err := fl.AppendBatch(run)
		if err != nil {
			n.logf("replica %s: applying %d records: %v", n.cfg.ID, len(run), err)
			return received
		}
		n.recordsApplied.Add(int64(len(run)))
		if flushed > acked || ackDue {
			if n.ackHook != nil && !n.ackHook(flushed, fl.FlushedLSN()) {
				return received
			}
			if err := out.Send(encodeFrame(frame{Op: rAck, LSN: flushed})); err != nil {
				return received
			}
			n.recordsPerAck.Observe(int64(len(run)))
			acked, ackDue = flushed, false
		}
		clear(run) // drop the payload references
		run = run[:0]
	}
}

// runCandidate stands for election: bump the term, vote for self, and
// canvass the peers. Majority wins promote; anything else demotes back
// to follower for another randomized wait.
func (n *Node) runCandidate() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.term++
	n.votedFor = n.cfg.ID
	n.persistTermLocked()
	term := n.term
	last := n.lastLSNLocked()
	n.mu.Unlock()
	n.count("replica.elections")
	n.logf("replica %s: standing in term %d (lastLSN %d)", n.cfg.ID, term, last)

	type voteResult struct {
		f  frame
		ok bool
	}
	results := make(chan voteResult, len(n.peerIDs))
	for _, id := range n.peerIDs {
		addr := n.peers[id]
		go func(addr string) {
			f, ok := n.requestVote(addr, term, last)
			results <- voteResult{f, ok}
		}(addr)
	}
	votes := 1 // our own
	needed := n.clusterSize/2 + 1
	timeout := time.After(n.electionTimeout())
	pending := len(n.peerIDs)
collect:
	for pending > 0 && votes < needed {
		select {
		case r := <-results:
			pending--
			if !r.ok {
				continue
			}
			if r.f.Term > term {
				n.adoptTerm(r.f.Term)
				n.setRole(Follower)
				return
			}
			if r.f.Granted {
				votes++
			}
		case <-timeout:
			break collect
		case <-n.stopCh:
			return
		}
	}
	n.mu.Lock()
	if !n.stopped && votes >= needed && n.term == term {
		n.roleVal = Leader
		n.leaderTerm = term
		n.leaderID = n.cfg.ID
		n.logf("replica %s: won term %d with %d/%d votes", n.cfg.ID, term, votes, n.clusterSize)
	} else {
		n.roleVal = Follower
	}
	n.mu.Unlock()
}

func (n *Node) requestVote(addr string, term, last uint64) (frame, bool) {
	conn, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		return frame{}, false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * n.cfg.LeaseTimeout))
	if err := wire.WriteFrame(conn, encodeFrame(frame{Op: rVoteReq, ID: n.cfg.ID, Term: term, LSN: last})); err != nil {
		return frame{}, false
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return frame{}, false
	}
	f, err := decodeFrame(payload)
	if err != nil || f.Op != rVoteResp {
		return frame{}, false
	}
	return f, true
}

// runLeader promotes the local log to a live broker, serves clients,
// and reigns until a higher term appears or the node stops.
func (n *Node) runLeader() {
	n.mu.Lock()
	if n.stopped || n.term != n.leaderTerm {
		n.roleVal = Follower
		n.mu.Unlock()
		return
	}
	term := n.term
	fl := n.flog
	if fl != nil {
		n.handoverLSN = fl.LastLSN()
	}
	n.flog = nil
	n.mu.Unlock()
	if fl != nil {
		fl.Close()
	}

	b, err := broker.NewDurableWith(nil, n.cfg.Dir, broker.DurableOptions{MaxSegmentBytes: n.cfg.MaxSegmentBytes})
	if err != nil {
		n.logf("replica %s: opening journal as leader: %v", n.cfg.ID, err)
		fl2, ferr := broker.OpenFollowerLog(n.cfg.Dir, n.cfg.MaxSegmentBytes)
		n.mu.Lock()
		if ferr == nil {
			n.flog = fl2
		}
		n.roleVal = Follower
		n.mu.Unlock()
		return
	}
	b.SetCommitGate(n.commitGate)
	n.mu.Lock()
	n.b = b
	n.commitLSN = 0 // acks of an earlier reign say nothing about this log
	n.mu.Unlock()
	n.srv.SetBroker(b)
	n.count("replica.promotions")
	n.gauge("replica.term", int64(term))
	n.logf("replica %s: leading term %d (lastLSN %d)", n.cfg.ID, term, b.LastLSN())

	n.mu.Lock()
	for !n.stopped && n.term == term {
		n.ackCond.Wait()
	}
	stopped := n.stopped
	n.handoverLSN = b.LastLSN()
	n.b = nil
	n.mu.Unlock()

	n.srv.SetBroker(nil)
	b.SetCommitGate(nil)
	b.Close()
	if stopped {
		return
	}
	n.count("replica.step_downs")
	n.logf("replica %s: stepping down from term %d", n.cfg.ID, term)
	fl3, err := broker.OpenFollowerLog(n.cfg.Dir, n.cfg.MaxSegmentBytes)
	n.mu.Lock()
	if err != nil {
		n.logf("replica %s: reopening follower log: %v", n.cfg.ID, err)
	} else {
		n.flog = fl3
	}
	n.roleVal = Follower
	n.mu.Unlock()
}

// commitGate is installed on the leader's publish path: wait until the
// commit LSN covers lsn, i.e. until quorum-1 distinct followers have
// flushed it (the leader itself, which flushed before streaming, is the
// quorum's first member). Waiters are woken when the commit LSN
// advances, when leadership or the node ends, and by their own deadline
// or context — not by every ack.
func (n *Node) commitGate(ctx context.Context, lsn uint64) error {
	if n.cfg.Quorum <= 1 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if done, err := n.committedLocked(lsn); done {
		return err
	}
	wake := func() {
		n.mu.Lock() // a waiter between its check and its Wait holds mu
		n.commitCond.Broadcast()
		n.mu.Unlock()
	}
	deadline := time.Now().Add(n.cfg.AckTimeout)
	timer := time.AfterFunc(n.cfg.AckTimeout, wake)
	defer timer.Stop()
	stop := context.AfterFunc(ctx, wake)
	defer stop()
	for {
		n.commitCond.Wait()
		if done, err := n.committedLocked(lsn); done {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			n.count("replica.quorum_timeouts")
			return fmt.Errorf("replica: no quorum for lsn %d within %v", lsn, n.cfg.AckTimeout)
		}
	}
}

// committedLocked reports whether a wait for lsn is over: committed, or
// failed because this node no longer leads.
func (n *Node) committedLocked(lsn uint64) (bool, error) {
	if n.stopped || n.roleVal != Leader {
		return true, broker.ErrNotLeader
	}
	return n.commitLSN >= lsn, nil
}

// ackLocked folds one follower ack into the session's high-water mark
// and recomputes the commit LSN: the (quorum-1)-th highest ack over the
// distinct follower ids of this reign, a follower with several sessions
// (it reconnected before the old one was reaped) counting once, at its
// best. The result never decreases: a follower that leaves takes
// nothing back, its flushed records stay flushed.
func (n *Node) ackLocked(fs *followerState, lsn uint64) {
	if lsn <= fs.acked {
		return
	}
	fs.acked = lsn
	acks := n.ackScratch[:0]
next:
	for s := range n.followers {
		if s.term != n.leaderTerm {
			continue
		}
		for i := range acks {
			if acks[i].id == s.id {
				acks[i].lsn = max(acks[i].lsn, s.acked)
				continue next
			}
		}
		acks = append(acks, idAck{s.id, s.acked})
	}
	n.ackScratch = acks
	need := n.cfg.Quorum - 1
	if need < 1 || len(acks) < need {
		return
	}
	slices.SortFunc(acks, func(a, b idAck) int { return cmp.Compare(b.lsn, a.lsn) }) // descending
	if c := acks[need-1].lsn; c > n.commitLSN {
		n.commitLSN = c
		n.commitGauge.Set(int64(c))
		n.commitCond.Broadcast()
	}
}

// --- replication listener ---

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.replLn.Accept()
		if err != nil {
			return
		}
		if !n.trackConn(conn) {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleRepl(conn)
		}()
	}
}

func (n *Node) handleRepl(conn net.Conn) {
	in := wire.NewFrameReader(conn)
	conn.SetReadDeadline(time.Now().Add(2 * n.cfg.LeaseTimeout))
	payload, err := in.Next()
	if err != nil {
		n.dropConn(conn)
		return
	}
	conn.SetReadDeadline(time.Time{})
	f, err := decodeFrame(payload)
	if err != nil {
		n.dropConn(conn)
		return
	}
	switch f.Op {
	case rVoteReq:
		term, granted := n.onVoteRequest(f)
		_ = n.writeConnFrame(conn, frame{Op: rVoteResp, Term: term, Granted: granted})
		n.dropConn(conn)
	case rJoin:
		n.serveFollower(conn, in, f)
	default:
		n.dropConn(conn)
	}
}

// onVoteRequest implements the vote rule: adopt higher terms, then
// grant iff the candidate's term matches ours, we have not voted for
// anyone else this term, and the candidate is at least as caught up.
func (n *Node) onVoteRequest(f frame) (uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f.Term > n.term {
		n.bumpTermLocked(f.Term)
	}
	granted := false
	if f.Term == n.term && (n.votedFor == "" || n.votedFor == f.ID) && f.LSN >= n.lastLSNLocked() {
		n.votedFor = f.ID
		n.persistTermLocked()
		granted = true
	}
	return n.term, granted
}

// serveFollower runs one leader-side replication session: welcome,
// snapshot, then live stream with heartbeats, while a reader goroutine
// folds the follower's acks into the commit LSN. Whatever the journal
// tap holds when the session wakes goes out in one socket write (the
// frame writer cuts in at 64 KiB), so a PublishBatch's records reach the
// follower in one read.
func (n *Node) serveFollower(conn net.Conn, in *wire.FrameReader, join frame) {
	n.mu.Lock()
	if join.Term > n.term {
		n.bumpTermLocked(join.Term)
	}
	ok := !n.stopped && n.roleVal == Leader && n.b != nil && n.term == n.leaderTerm
	term := n.term
	b := n.b
	n.mu.Unlock()
	if !ok {
		_ = n.writeConnFrame(conn, frame{Op: rNotLeader, Term: term})
		n.dropConn(conn)
		return
	}
	snap, tap, cancel, err := b.ReplSubscribe(4096)
	if err != nil {
		n.dropConn(conn)
		return
	}
	defer cancel()
	fs := &followerState{id: join.ID, term: term}
	n.mu.Lock()
	n.followers[fs] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.followers, fs)
		n.mu.Unlock()
		n.dropConn(conn)
	}()
	out := wire.NewFrameWriter(conn, 2*n.cfg.LeaseTimeout, n.cfg.Metrics)
	if err := out.Send(encodeFrame(frame{Op: rWelcome, Term: term, ID: n.cfg.ID})); err != nil {
		return
	}
	n.logf("replica %s: follower %s joined term %d; snapshotting %d records",
		n.cfg.ID, join.ID, term, len(snap))

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			payload, err := in.Next()
			if err != nil {
				conn.Close()
				return
			}
			f, err := decodeFrame(payload)
			if err != nil || f.Op != rAck {
				conn.Close()
				return
			}
			n.mu.Lock()
			n.ackLocked(fs, f.LSN)
			n.mu.Unlock()
		}
	}()

	var (
		scratch []byte // reused: Append copies
		snapMax uint64
	)
	record := func(rec *broker.ReplRecord) error {
		scratch = appendFrame(scratch[:0], frame{Op: rRecord, LSN: rec.LSN, Topic: rec.Topic, Payload: rec.Payload})
		n.recordsStreamed.Inc()
		return out.Append(scratch)
	}
	for i := range snap {
		snapMax = max(snapMax, snap[i].LSN)
		if err := record(&snap[i]); err != nil {
			return
		}
	}
	if err := out.Send(encodeFrame(frame{Op: rSnapEnd, LSN: snapMax})); err != nil {
		return
	}
	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case rec, open := <-tap:
		drain:
			for {
				if !open {
					// The follower fell too far behind the tap; drop the
					// session so it reconnects and takes a fresh snapshot.
					n.logf("replica %s: follower %s overran the stream buffer", n.cfg.ID, join.ID)
					return
				}
				if err := record(&rec); err != nil {
					return
				}
				select {
				case rec, open = <-tap:
				default:
					break drain // nothing more queued: one write for the lot
				}
			}
			if err := out.Flush(); err != nil {
				return
			}
		case <-ticker.C:
			n.mu.Lock()
			still := !n.stopped && n.roleVal == Leader && n.term == term
			n.mu.Unlock()
			if !still {
				return
			}
			if err := out.Send(encodeFrame(frame{Op: rHeart, Term: term, LSN: b.LastLSN()})); err != nil {
				return
			}
		case <-n.stopCh:
			return
		}
	}
}

// --- connection bookkeeping and small helpers ---

func (n *Node) trackConn(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		c.Close()
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) dropConn(c net.Conn) {
	c.Close()
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// writeConnFrame writes one frame with a bounded write deadline so a
// wedged peer cannot hang the writer forever.
func (n *Node) writeConnFrame(conn net.Conn, f frame) error {
	conn.SetWriteDeadline(time.Now().Add(2 * n.cfg.LeaseTimeout))
	err := wire.WriteFrame(conn, encodeFrame(f))
	conn.SetWriteDeadline(time.Time{})
	return err
}

func (n *Node) logf(format string, args ...any) { n.cfg.Logf(format, args...) }

func (n *Node) count(name string) {
	if n.cfg.Metrics != nil {
		n.cfg.Metrics.Counter(name).Inc()
	}
}

func (n *Node) gauge(name string, v int64) {
	if n.cfg.Metrics != nil {
		n.cfg.Metrics.Gauge(name).Set(v)
	}
}
