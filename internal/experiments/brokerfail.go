package experiments

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"bistream/internal/broker"
	"bistream/internal/broker/replica"
	"bistream/internal/metrics"
	"bistream/internal/wire"
)

// BrokerFailConfig parameterizes the broker-failover experiment: it
// prices the replicated log (publish throughput with a quorum commit
// gate versus a solo unreplicated broker) and measures the availability
// gap a leader cold-kill opens — election, client re-probe, first
// successful publish on the new leader.
type BrokerFailConfig struct {
	// Nodes is the replica-group size (>= 2 for the failover phase).
	Nodes int
	// Quorum is the publish commit quorum for the replicated phase.
	Quorum int
	// Messages is the publish count per throughput measurement.
	Messages int
	// Publishers is the number of concurrent publishing goroutines,
	// which pipelines the commit gate the way a router fleet would.
	Publishers int
	// Body is the payload size in bytes.
	Body int
	// HeartbeatInterval and LeaseTimeout shape the failover detection
	// window; the election timeout defaults to twice the lease.
	HeartbeatInterval, LeaseTimeout time.Duration
	// Seed drives election jitter.
	Seed int64
}

// DefaultBrokerFailConfig measures 3 nodes at quorum 2 — the smallest
// group that survives one cold-kill.
func DefaultBrokerFailConfig() BrokerFailConfig {
	return BrokerFailConfig{
		Nodes:             3,
		Quorum:            2,
		Messages:          4000,
		Publishers:        4,
		Body:              128,
		HeartbeatInterval: 10 * time.Millisecond,
		LeaseTimeout:      100 * time.Millisecond,
		Seed:              7,
	}
}

// BrokerFailResult is the experiment's measurement.
type BrokerFailResult struct {
	// SoloMsgsPerSec is publish throughput against one unreplicated
	// durable broker (quorum 1, no followers).
	SoloMsgsPerSec float64
	// ReplMsgsPerSec is publish throughput against the replica group,
	// every publish acked only at commit quorum.
	ReplMsgsPerSec float64
	// ReplicationCost is SoloMsgsPerSec / ReplMsgsPerSec.
	ReplicationCost float64
	// FailoverPauseMS is the client-observed unavailability: leader
	// cold-killed mid-traffic until the first publish acked by the
	// promoted leader.
	FailoverPauseMS float64
	// KilledID and PromotedID name the old and new leader; PromotedTerm
	// is the term the group converged on.
	KilledID, PromotedID string
	PromotedTerm         uint64
	// PostFailoverReady is the queue depth on the promoted leader after
	// the run — evidence the replicated log carried the traffic across.
	PostFailoverReady int
	// FramesPerWrite and RecordsPerAck are the replicated phase's
	// group-commit factors, over the client, the group's servers and
	// the replication streams together: frames carried per socket
	// write, and journal records covered per follower ack.
	FramesPerWrite, RecordsPerAck float64
}

// startReplicaGroup brings up size nodes with distinct on-disk dirs and
// returns them with their client addresses. Callers own Kill.
func startReplicaGroup(cfg BrokerFailConfig, size, quorum int, reg *metrics.Registry) ([]*replica.Node, []string, error) {
	peers := make(map[string]string, size)
	ids := make([]string, 0, size)
	for i := 0; i < size; i++ {
		id := fmt.Sprintf("n%d", i+1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		ids = append(ids, id)
		peers[id] = addr
	}
	nodes := make([]*replica.Node, 0, size)
	addrs := make([]string, 0, size)
	for i, id := range ids {
		dir, err := os.MkdirTemp("", "bistream-brokerfail-")
		if err != nil {
			return nil, nil, err
		}
		n, err := replica.NewNode(replica.Config{
			ID:                id,
			Dir:               dir,
			ClientAddr:        "127.0.0.1:0",
			ReplAddr:          peers[id],
			Peers:             peers,
			Quorum:            quorum,
			HeartbeatInterval: cfg.HeartbeatInterval,
			LeaseTimeout:      cfg.LeaseTimeout,
			Seed:              cfg.Seed*100 + int64(i+1),
			Metrics:           reg,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := n.Start(); err != nil {
			return nil, nil, err
		}
		nodes = append(nodes, n)
		addrs = append(addrs, n.ClientAddr().String())
	}
	return nodes, addrs, nil
}

// measureThroughput publishes cfg.Messages across cfg.Publishers
// goroutines and returns messages per second.
func measureThroughput(client broker.Client, cfg BrokerFailConfig, exchange string) (float64, error) {
	body := make([]byte, cfg.Body)
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Publishers)
	per := cfg.Messages / cfg.Publishers
	start := time.Now()
	for p := 0; p < cfg.Publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := client.Publish(exchange, "k", nil, body); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(per*cfg.Publishers) / elapsed.Seconds(), nil
}

func setupTopology(client broker.Client, exchange, queue string) error {
	if err := client.DeclareExchange(exchange, broker.Direct); err != nil {
		return err
	}
	if err := client.DeclareQueue(queue, broker.QueueOptions{Durable: true}); err != nil {
		return err
	}
	return client.Bind(queue, exchange, "k")
}

// RunBrokerFail executes the broker-failover experiment.
func RunBrokerFail(cfg BrokerFailConfig) (*BrokerFailResult, error) {
	if cfg.Nodes < 2 || cfg.Quorum < 1 || cfg.Quorum > cfg.Nodes ||
		cfg.Messages <= 0 || cfg.Publishers <= 0 || cfg.Publishers > cfg.Messages {
		return nil, fmt.Errorf("experiments: bad brokerfail config")
	}
	res := &BrokerFailResult{}

	// Phase 1: solo baseline — one node, quorum 1, no replication.
	solo, soloAddrs, err := startReplicaGroup(cfg, 1, 1, nil)
	if err != nil {
		return nil, err
	}
	defer killAll(solo)
	if _, err := replica.WaitLeader(solo, 10*time.Second); err != nil {
		return nil, err
	}
	soloClient, err := wire.Connect(wire.Config{Addrs: soloAddrs, Reconnect: true})
	if err != nil {
		return nil, err
	}
	defer soloClient.Close()
	if err := setupTopology(soloClient, "bf.exchange", "bf.queue"); err != nil {
		return nil, err
	}
	if res.SoloMsgsPerSec, err = measureThroughput(soloClient, cfg, "bf.exchange"); err != nil {
		return nil, err
	}

	// Phase 2: replicated throughput — every publish gated on quorum.
	reg := metrics.NewRegistry() // shared by the group and its client
	nodes, addrs, err := startReplicaGroup(cfg, cfg.Nodes, cfg.Quorum, reg)
	if err != nil {
		return nil, err
	}
	defer killAll(nodes)
	if _, err := replica.WaitLeader(nodes, 10*time.Second); err != nil {
		return nil, err
	}
	client, err := wire.Connect(wire.Config{
		Addrs:          addrs,
		Reconnect:      true,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           cfg.Seed,
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if err := setupTopology(client, "bf.exchange", "bf.queue"); err != nil {
		return nil, err
	}
	if res.ReplMsgsPerSec, err = measureThroughput(client, cfg, "bf.exchange"); err != nil {
		return nil, err
	}
	if res.ReplMsgsPerSec > 0 {
		res.ReplicationCost = res.SoloMsgsPerSec / res.ReplMsgsPerSec
	}
	if writes := reg.Counter("wire.writes_out").Value(); writes > 0 {
		res.FramesPerWrite = float64(reg.Counter("wire.frames_out").Value()) / float64(writes)
	}
	res.RecordsPerAck = reg.Histogram("replica.records_per_ack").Mean()

	// Phase 3: cold-kill the leader mid-traffic and time the outage as
	// the client sees it — detection, election, re-probe, first ack.
	leader, err := replica.WaitLeader(nodes, 10*time.Second)
	if err != nil {
		return nil, err
	}
	res.KilledID = leader.ID()
	body := make([]byte, cfg.Body)
	leader.Kill()
	outage := time.Now()
	deadline := outage.Add(30 * time.Second)
	for {
		if err := client.Publish("bf.exchange", "k", nil, body); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: no publish succeeded within 30s of leader kill")
		}
		time.Sleep(time.Millisecond)
	}
	res.FailoverPauseMS = float64(time.Since(outage)) / float64(time.Millisecond)

	promoted, err := replica.WaitLeader(alive(nodes, leader), 10*time.Second)
	if err != nil {
		return nil, err
	}
	res.PromotedID = promoted.ID()
	res.PromotedTerm = promoted.Term()
	if b := promoted.Broker(); b != nil {
		if st, err := b.QueueStats("bf.queue"); err == nil {
			res.PostFailoverReady = st.Ready
		}
	}
	return res, nil
}

func killAll(nodes []*replica.Node) {
	for _, n := range nodes {
		n.Kill()
	}
}

func alive(nodes []*replica.Node, dead *replica.Node) []*replica.Node {
	out := make([]*replica.Node, 0, len(nodes))
	for _, n := range nodes {
		if n != dead {
			out = append(out, n)
		}
	}
	return out
}

// FormatBrokerFail renders the result as the experiment report.
func FormatBrokerFail(res *BrokerFailResult, cfg BrokerFailConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "publish throughput, solo broker (no replication): %.0f msgs/s\n", res.SoloMsgsPerSec)
	fmt.Fprintf(&b, "publish throughput, %d-node group at quorum %d:    %.0f msgs/s\n",
		cfg.Nodes, cfg.Quorum, res.ReplMsgsPerSec)
	fmt.Fprintf(&b, "replication cost factor:                          %.2fx\n", res.ReplicationCost)
	fmt.Fprintf(&b, "group commit: frames per socket write %.2f, journal records per follower ack %.2f\n",
		res.FramesPerWrite, res.RecordsPerAck)
	fmt.Fprintf(&b, "leader %s cold-killed; %s promoted (term %d)\n",
		res.KilledID, res.PromotedID, res.PromotedTerm)
	fmt.Fprintf(&b, "client-observed failover pause:                   %.1f ms\n", res.FailoverPauseMS)
	fmt.Fprintf(&b, "queue depth on promoted leader:                   %d messages\n", res.PostFailoverReady)
	return b.String()
}
