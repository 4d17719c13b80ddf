package bistream_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/wire"
)

// TestDistributedProcesses builds the real binaries and runs the full
// deployment as separate OS processes — one brokerd, two joinerds and a
// routerd — then publishes tuples over the wire protocol and verifies
// the join results coming back through the result exchange. This is the
// closest in-repo analogue of the original containerized deployment.
func TestDistributedProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs binaries")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		return out
	}
	brokerd := build("brokerd")
	joinerd := build("joinerd")
	routerd := build("routerd")

	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	procs := []*exec.Cmd{
		exec.Command(brokerd, "-addr", addr),
	}
	start := func(cmd *exec.Cmd) {
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	start(procs[0])
	waitDialable(t, addr)

	for _, args := range [][]string{
		{"-broker", addr, "-relation", "R", "-id", "0", "-routers", "0", "-window", "1m", "-stats", "0"},
		{"-broker", addr, "-relation", "S", "-id", "0", "-routers", "0", "-window", "1m", "-stats", "0"},
	} {
		start(exec.Command(joinerd, args...))
	}
	start(exec.Command(routerd,
		"-broker", addr, "-id", "0", "-r-joiners", "1", "-s-joiners", "1",
		"-window", "1m", "-punctuation", "2ms"))

	// Connect as the stream source + result sink.
	client, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.DeclareQueue("e2e-sink", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	// Wait for a service to have declared the topology: the result
	// exchange comes after the entry exchange, its queue and its binding
	// in topo.Declare, so once this bind succeeds publishing can start.
	waitFor(t, 10*time.Second, func() bool {
		return client.Bind("e2e-sink", topo.ResultExchange, topo.ResultKey) == nil
	})
	sink, err := client.Consume("e2e-sink", 64, true)
	if err != nil {
		t.Fatal(err)
	}

	const pairs = 50
	base := time.Now().UnixMilli()
	for i := 0; i < pairs; i++ {
		r := tuple.New(tuple.R, uint64(i+1), base+int64(i), tuple.Int(int64(i)))
		s := tuple.New(tuple.S, uint64(i+1000), base+int64(i), tuple.Int(int64(i)))
		if err := client.Publish(topo.EntryExchange, topo.EntryKey, nil, tuple.Marshal(r)); err != nil {
			t.Fatal(err)
		}
		if err := client.Publish(topo.EntryExchange, topo.EntryKey, nil, tuple.Marshal(s)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[[2]uint64]int{}
	deadline := time.After(30 * time.Second)
	var dec tuple.Decoder
	var frame []*tuple.Tuple
	for len(seen) < pairs {
		select {
		case d := <-sink.Deliveries():
			// Each delivery is a result frame of one or more pairs.
			if frame, err = dec.AppendPairs(frame[:0], d.Body); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(frame); i += 2 {
				seen[tuple.NewJoinResult(frame[i], frame[i+1]).Key()]++
			}
		case <-deadline:
			t.Fatalf("only %d/%d results after 30s", len(seen), pairs)
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("pair %v delivered %d times", k, n)
		}
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func waitDialable(t *testing.T, addr string) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
