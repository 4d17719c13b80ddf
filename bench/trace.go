package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"bistream/bench/gen"
	"bistream/bench/ledger"
	"bistream/bench/ref"
	"bistream/internal/broker"
	"bistream/internal/tuple"
	"bistream/internal/wire"
)

// observedShare is how much of --seconds the traced run spends on the
// observed engine run; the ledger pipeline and its replays use a fixed
// tuple count and take what they take.
const observedShare = 0.5

// runTraced is the per-layer run of one workload: an engine run watched
// from outside for the counters, then the ledger pipeline for the
// per-call times. Its end-to-end figures are kept only as the base of
// ledger.coverage — they carry the observer's overhead.
func runTraced(w *gen.Workload, opt runOptions, traceOut string) (*RunResult, error) {
	n := w.LedgerSize(opt.Seconds)
	opt.observer = &observer{}
	opt.Seconds *= observedShare
	res, err := runWorkload(w, opt)
	if err != nil {
		return nil, err
	}
	cpu := res.Metrics["cpu_us_per_tuple"].Value
	lag := res.Metrics["gen.lag_p99_ms"]
	res.Info["observed"] = res.Metrics
	res.Metrics = opt.observer.metrics
	res.Metrics["gen.lag_p99_ms"] = lag

	st, err := gen.New(w.Stream, opt.Seed, n)
	if err != nil {
		return nil, err
	}
	// The oracle first: its pair count sizes the ledger's span recorder.
	exp := w.Expected(st)
	cfg := ledger.Config{Workload: w, Stream: st, Tuples: n, Pairs: len(exp), Replays: true}
	var lres *ledger.Result
	if w.Wire {
		lres, err = wireLedger(cfg, opt, res)
	} else {
		b := broker.New(nil)
		cfg.Client = b
		lres, err = ledger.Run(cfg)
		b.Close()
	}
	if err != nil {
		return nil, err
	}
	for name, m := range lres.Metrics(cpu, w.Wire) {
		res.Metrics[name] = m
	}
	res.Info["ledger_tuples"] = n
	res.Info["ledger_spans"] = len(lres.Spans)
	res.Info["ledger_ops"] = lres.OpTable()

	// The ledger did the same work iff its pairs match the oracle too.
	rep := ref.Verify(exp, lres.Pairs)
	res.Attempted += int64(n + len(exp))
	res.Failed += int64(rep.Failed())
	res.Info["ledger_results"] = rep.Got
	if rep.Failed() > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("ledger: missing %d, duplicated %d, spurious %d of %d pairs",
			rep.Missing, rep.Duplicated, rep.Spurious, rep.Expected))
		res.Correct = false
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		if err := ledger.WriteSpans(f, lres.Spans); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// wireLedger runs the ledger pipeline twice over a wire.Client: against
// a solo wire.Server first (wire.* metrics), then against the quorum-2
// replica group, whose extra publish time is the replication cost.
func wireLedger(cfg ledger.Config, opt runOptions, res *RunResult) (*ledger.Result, error) {
	solo, err := soloLedger(cfg)
	if err != nil {
		return nil, err
	}
	g, err := startReplicaGroup(opt.TempDir, replicaNodes, replicaQuorum, opt.Seed)
	if err != nil {
		return nil, err
	}
	defer g.close()
	cl, err := g.connect(opt.Seed)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cfg.Client, cfg.Replays = cl, true
	quorum, err := ledger.Run(cfg)
	if err != nil {
		return nil, err
	}
	res.Metrics["wire.publish_rtt_us"] = metric(solo.publishNS/1e3, "us")
	res.Metrics["wire.frame_bytes_per_msg"] = metric(solo.frameBytes, "bytes")
	res.Metrics["replica.commit_rtt_us"] = metric((quorum.PublishNS()-solo.publishNS)/1e3, "us")
	return quorum, nil
}

type soloResult struct {
	publishNS  float64
	frameBytes float64
}

// soloLedger runs the pipeline over a wire.Client to a solo wire.Server
// on an in-memory broker, after sizing the frames through a
// byte-counting loopback proxy.
func soloLedger(cfg ledger.Config) (soloResult, error) {
	b := broker.New(nil)
	defer b.Close()
	srv := wire.NewServer(b, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return soloResult{}, err
	}
	defer srv.Close()

	// Frame size first, on its own connection through the proxy: one
	// queue, entry-sized bodies, nothing else on the socket.
	px, err := newCountingProxy(addr.String())
	if err != nil {
		return soloResult{}, err
	}
	defer px.close()
	bytesPerMsg, err := frameBytes(px, cfg)
	if err != nil {
		return soloResult{}, err
	}

	cl, err := wire.Dial(addr.String())
	if err != nil {
		return soloResult{}, err
	}
	defer cl.Close()
	cfg.Client, cfg.Replays = cl, false
	r, err := ledger.Run(cfg)
	if err != nil {
		return soloResult{}, err
	}
	return soloResult{publishNS: r.PublishNS(), frameBytes: bytesPerMsg}, nil
}

// frameBytes publishes the stream's first tuples to a scratch queue
// through the proxy and returns socket bytes per message, request and
// reply together.
func frameBytes(px *countingProxy, cfg ledger.Config) (float64, error) {
	cl, err := wire.Dial(px.addr())
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	const ex, q = "bench.frames", "bench.frames.q"
	if err := cl.DeclareExchange(ex, broker.Direct); err != nil {
		return 0, err
	}
	if err := cl.DeclareQueue(q, broker.QueueOptions{}); err != nil {
		return 0, err
	}
	if err := cl.Bind(q, ex, "k"); err != nil {
		return 0, err
	}
	n := min(cfg.Tuples, 1000)
	before := px.bytes.Load()
	for i := 0; i < n; i++ {
		if err := cl.Publish(ex, "k", nil, tuple.Marshal(cfg.Stream.Tuple(i))); err != nil {
			return 0, err
		}
	}
	return float64(px.bytes.Load()-before) / float64(n), nil
}

// countingProxy forwards TCP connections to a target and counts every
// byte in either direction.
type countingProxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	mu     sync.Mutex
	conns  []net.Conn
	wg     sync.WaitGroup
}

func newCountingProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(in, out)
		go p.pipe(out, in)
	}
}

// pipe copies src to dst until either side closes.
func (p *countingProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		p.bytes.Add(int64(n))
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break // EOF, or a reset when the run tears the socket down
		}
	}
	dst.Close()
}

// close stops the listener and every forwarded connection, and waits
// for the copy goroutines.
func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
