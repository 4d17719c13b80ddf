// Command joinerd runs one joiner service against a remote brokerd: it
// stores its partition of one relation in a chained in-memory index
// over the sliding window, join-processes the opposite relation's
// tuples, and publishes results to the result exchange.
//
// Usage:
//
//	joinerd -broker localhost:5672 -relation R -id 0 \
//	        -predicate 'equi(0,0)' -window 10m -routers 0,1
//
// Against a replicated broker group, list every member address and the
// client probes its way to the current leader:
//
//	joinerd -broker host1:5672,host2:5672,host3:5672 ...
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"bistream/internal/checkpoint"
	"bistream/internal/joiner"
	"bistream/internal/metrics"
	"bistream/internal/obs"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
	"bistream/internal/wire"
)

func main() {
	var (
		brokerAddr  = flag.String("broker", "localhost:5672", "brokerd address, or comma-separated replica group addresses")
		relFlag     = flag.String("relation", "R", "relation this joiner stores: R or S")
		id          = flag.Int("id", 0, "member id within the relation's group")
		predSpec    = flag.String("predicate", "equi(0,0)", "join predicate")
		winSpan     = flag.Duration("window", 10*time.Minute, "sliding window span")
		archive     = flag.Duration("archive", 0, "chained index archive period (0 = window/4 for a band predicate, window/16 for any other)")
		shards      = flag.Int("shards", 0, "per-core store shards for the batched hot path (0 = GOMAXPROCS)")
		routers     = flag.String("routers", "0", "comma-separated router ids to register")
		statsEvery  = flag.Duration("stats", 10*time.Second, "stats logging period (0 = off)")
		metricsAddr = flag.String("metrics", "", "observability HTTP address (/metrics, /debug/pprof; empty to disable)")
		traceSample = flag.Int("trace-sample", 0, "trace 1-in-N tuples through the stage histograms (0 = default, <0 = off)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for checkpointed window state (empty = no durability; a cold restart loses the window)")
		ckptEvery   = flag.Duration("checkpoint-interval", 0, "checkpoint period (0 = default 250ms; only with -checkpoint-dir)")
	)
	flag.Parse()
	log.SetPrefix("joinerd: ")

	var rel tuple.Relation
	switch strings.ToUpper(*relFlag) {
	case "R":
		rel = tuple.R
	case "S":
		rel = tuple.S
	default:
		log.Fatalf("bad -relation %q (want R or S)", *relFlag)
	}
	pred, err := predicate.Parse(*predSpec)
	if err != nil {
		log.Fatal(err)
	}
	reg := metrics.NewRegistry()
	// Supervised connection: wait for brokerd to come up, reconnect with
	// backoff when it restarts, and detect half-open TCP via heartbeat,
	// instead of exiting on the first dial failure.
	client, err := wire.Connect(wire.Config{
		Addrs:     strings.Split(*brokerAddr, ","),
		Reconnect: true,
		Heartbeat: time.Second,
		Metrics:   reg,
		Logf:      log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	var tracer *metrics.Tracer
	if *traceSample >= 0 {
		every := *traceSample
		if every == 0 {
			every = metrics.DefaultTraceSample
		}
		tracer = metrics.NewTracer(reg, every)
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("metrics on http://%s/metrics", srv.Addr())
	}

	core, err := joiner.NewCore(joiner.Config{
		ID:            int32(*id),
		Rel:           rel,
		Pred:          pred,
		Window:        window.Sliding{Span: *winSpan},
		ArchivePeriod: *archive,
		Shards:        *shards,
		Metrics:       reg,
		Trace:         tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := joiner.NewService(core, client)
	if *ckptDir != "" {
		store, err := (checkpoint.FileProvider{Dir: *ckptDir}).StoreFor(rel, int32(*id))
		if err != nil {
			log.Fatal(err)
		}
		ck := checkpoint.New(checkpoint.Config{
			Store:   store,
			Metrics: reg,
			Prefix:  core.MetricsPrefix(),
		})
		recovered, err := svc.EnableCheckpointing(ck, *ckptEvery)
		if err != nil {
			// Durable state exists but no epoch is intact: starting blind
			// would silently drop acked tuples. Operator intervention
			// (restore the directory or wipe it deliberately) is required.
			log.Fatalf("checkpoint recovery: %v", err)
		}
		if recovered {
			st := svc.Stats()
			log.Printf("recovered checkpoint epoch %d: window=%d tuples", ck.Epoch(), st.WindowLen)
		}
	}
	for _, part := range strings.Split(*routers, ",") {
		rid, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad -routers %q: %v", *routers, err)
		}
		svc.AddRouter(int32(rid))
	}
	if err := svc.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("joiner %s/%d up: %v window, predicate %v", rel, *id, *winSpan, pred)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				st := svc.Stats()
				log.Printf("window=%d tuples (%.1f MiB, %d sub-indexes) stored=%d probed=%d results=%d expired=%d pending=%d",
					st.WindowLen, float64(st.MemBytes)/(1<<20), st.SubIndexes,
					st.Stored, st.Probed, st.Results, st.Expired, st.Pending)
			case <-stop:
				log.Print("stopping")
				svc.Stop()
				return
			}
		}
	}
	<-stop
	svc.Stop()
}
