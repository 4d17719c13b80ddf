package wire

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/metrics"
)

// fastReconnect keeps test backoffs tight and deterministic.
func fastReconnect(addr string) Config {
	return Config{
		Addr:           addr,
		Reconnect:      true,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           1,
	}
}

// silentListener accepts connections and reads frames but never
// replies — the shape of a half-open or wedged peer.
type silentListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newSilentListener(t *testing.T) *silentListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &silentListener{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { s.close() })
	return s
}

func (s *silentListener) close() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

func (s *silentListener) dropConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// TestInFlightRequestFailsTypedNotHang: a request outstanding when the
// connection dies must return promptly with an error wrapping
// ErrConnLost — never hang waiting for a reply that cannot come.
func TestInFlightRequestFailsTypedNotHang(t *testing.T) {
	s := newSilentListener(t)
	client, err := Connect(Config{Addr: s.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- client.Publish("nope", "k", nil, []byte("x")) }()
	time.Sleep(20 * time.Millisecond) // let the request get in flight
	s.dropConns()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("in-flight publish failed with %v; want ErrConnLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight publish hung after connection loss")
	}
}

// TestConnectWaitsForBroker: with Reconnect, Connect keeps dialing
// until the broker comes up — the supervised-daemon start path.
func TestConnectWaitsForBroker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; nothing is listening now

	type result struct {
		c   *Client
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := Connect(fastReconnect(addr))
		done <- result{c, err}
	}()

	time.Sleep(30 * time.Millisecond) // a few failed dials
	b := broker.New(nil)
	defer b.Close()
	srv := NewServer(b, t.Logf)
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		defer r.c.Close()
		if err := r.c.Ping(); err != nil {
			t.Fatalf("ping after late connect: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Connect did not return after the broker came up")
	}
}

// TestReconnectReplaysTopologyAndConsumers is the brokerd-restart
// scenario: the daemon dies and comes back empty on the same address.
// The client must re-dial on its own, re-declare every exchange, queue
// and binding it had issued, re-attach its consumers, and resume
// delivering — all without manual intervention. An ack for a delivery
// from before the restart must fail with ErrStaleDelivery instead of
// settling some other message.
func TestReconnectReplaysTopologyAndConsumers(t *testing.T) {
	b := broker.New(nil)
	srv := NewServer(b, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := fastReconnect(addr.String())
	cfg.Metrics = reg
	cfg.Logf = t.Logf
	client, err := Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := client.DeclareQueue("q", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	cons, err := client.Consume("q", 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Publish("ex", "k", nil, []byte("before")); err != nil {
		t.Fatal(err)
	}
	var before broker.Delivery
	select {
	case before = <-cons.Deliveries():
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery before restart")
	}

	// Crash the daemon: server and broker state are gone. The fresh
	// broker starts empty, so resuming requires a full topology replay.
	srv.Close()
	b.Close()
	b2 := broker.New(nil)
	defer b2.Close()
	srv2 := NewServer(b2, t.Logf)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := srv2.Listen(addr.String()); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// The pre-restart delivery was requeued server-side (and lost with
	// the old broker); settling it now must be refused as stale.
	for {
		err := cons.Ack(before.Tag)
		if errors.Is(err, ErrStaleDelivery) {
			break
		}
		if err == nil {
			t.Fatal("ack of a pre-restart delivery succeeded; want ErrStaleDelivery")
		}
		// ErrConnLost window while reconnecting: the tag map may not have
		// rolled over yet. Retry briefly.
		if time.Now().After(deadline) {
			t.Fatalf("pre-restart ack kept failing with %v; want ErrStaleDelivery", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Publishing works again once the replay finishes; retry through the
	// reconnect window.
	for {
		err := client.Publish("ex", "k", nil, []byte("after"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish after restart kept failing: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case d := <-cons.Deliveries():
		if string(d.Body) != "after" {
			t.Fatalf("delivery after restart = %q; want %q", d.Body, "after")
		}
		if err := cons.Ack(d.Tag); err != nil {
			t.Fatalf("ack after restart: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer did not resume after broker restart")
	}

	if g := client.Generation(); g < 2 {
		t.Errorf("generation = %d; want >= 2 after a reconnect", g)
	}
	if v, _ := reg.Value("wire.connects"); v < 2 {
		t.Errorf("wire.connects = %v; want >= 2", v)
	}
	if v, _ := reg.Value("wire.disconnects"); v < 1 {
		t.Errorf("wire.disconnects = %v; want >= 1", v)
	}
}

// TestStaleAckCannotSettleReusedTag: a restarted (or newly elected)
// broker numbers its deliveries from scratch, so a delivery over the
// new connection can carry the same server tag as one the application
// still holds from the old connection. Settling the old delivery must
// fail as stale and leave the new one alone: a nack of the new one
// must still requeue it, not find it already acked and lose it.
func TestStaleAckCannotSettleReusedTag(t *testing.T) {
	b := broker.New(nil)
	srv := NewServer(b, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastReconnect(addr.String())
	cfg.Logf = t.Logf
	client, err := Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	mustNil(t, client.DeclareExchange("ex", broker.Direct))
	mustNil(t, client.DeclareQueue("q", broker.QueueOptions{}))
	mustNil(t, client.Bind("q", "ex", "k"))
	cons, err := client.Consume("q", 8, false)
	if err != nil {
		t.Fatal(err)
	}
	mustNil(t, client.Publish("ex", "k", nil, []byte("before")))
	before := recvBody(t, cons, "before")

	srv.Close()
	b.Close()
	b2 := broker.New(nil)
	defer b2.Close()
	srv2 := NewServer(b2, t.Logf)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := srv2.Listen(addr.String()); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()
	for {
		err := client.Publish("ex", "k", nil, []byte("after"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish after restart kept failing: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The fresh broker's first delivery: server tag 1, like "before".
	after := recvBody(t, cons, "after")

	if err := cons.Ack(before.Tag); !errors.Is(err, ErrStaleDelivery) {
		t.Fatalf("ack of the pre-restart delivery = %v; want ErrStaleDelivery", err)
	}
	if err := cons.Nack(after.Tag, true); err != nil {
		t.Fatalf("nack of the post-restart delivery: %v", err)
	}
	again := recvBody(t, cons, "after")
	if !again.Redelivered {
		t.Error("requeued delivery not marked redelivered")
	}
	mustNil(t, cons.Ack(again.Tag))
}

// recvBody waits for the consumer's next delivery and checks its body.
func recvBody(t *testing.T, cons broker.Consumer, want string) broker.Delivery {
	t.Helper()
	select {
	case d := <-cons.Deliveries():
		if string(d.Body) != want {
			t.Fatalf("delivery = %q; want %q", d.Body, want)
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatalf("no %q delivery", want)
	}
	return broker.Delivery{}
}

// TestHeartbeatDetectsHalfOpenConnection: against a peer that accepts
// and stays silent, the heartbeat must declare the connection dead and
// force a reconnect instead of waiting on TCP forever.
func TestHeartbeatDetectsHalfOpenConnection(t *testing.T) {
	s := newSilentListener(t)
	reg := metrics.NewRegistry()
	cfg := fastReconnect(s.ln.Addr().String())
	cfg.Heartbeat = 10 * time.Millisecond
	cfg.Metrics = reg
	client, err := Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := reg.Value("wire.heartbeat_timeouts"); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never declared the silent connection dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The heartbeat only closes the socket; the read loop notices and
	// counts the disconnect a moment later.
	for {
		v, _ := reg.Value("wire.disconnects")
		if v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wire.disconnects = %v; want >= 1 after heartbeat kill", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
