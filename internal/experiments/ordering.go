package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bistream/internal/joiner"
	"bistream/internal/predicate"
	"bistream/internal/protocol"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// OrderingConfig parameterizes E4, the Figure 8 experiment: pairs of
// joinable tuples are delivered to both sides' joiners under random
// interleavings (always respecting per-path FIFO), with and without the
// ordering protocol, and the results are checked for the missed and
// duplicated anomalies of Figures 8(c)/8(d).
type OrderingConfig struct {
	// Pairs is the number of joinable (r, s) pairs to push through.
	Pairs int
	// Routers is the number of stamping routers the tuples come from.
	Routers int
	// Seed drives the interleavings.
	Seed int64
}

// DefaultOrderingConfig uses enough pairs for the anomaly rates to be
// stable.
func DefaultOrderingConfig() OrderingConfig {
	return OrderingConfig{Pairs: 2000, Routers: 2, Seed: 8}
}

// OrderingResult reports exactly-once accounting for one mode.
type OrderingResult struct {
	Protocol   bool
	Pairs      int
	Exact      int // pairs producing exactly one result
	Missed     int // pairs producing zero results (Fig. 8(c))
	Duplicated int // pairs producing two results (Fig. 8(d))
}

// RunOrdering executes E4 for both modes and returns
// (withProtocol, withoutProtocol).
func RunOrdering(cfg OrderingConfig) (OrderingResult, OrderingResult, error) {
	if cfg.Pairs <= 0 || cfg.Routers <= 0 {
		return OrderingResult{}, OrderingResult{}, fmt.Errorf("experiments: bad ordering config %+v", cfg)
	}
	with, err := runOrderingMode(cfg, true)
	if err != nil {
		return OrderingResult{}, OrderingResult{}, err
	}
	without, err := runOrderingMode(cfg, false)
	if err != nil {
		return OrderingResult{}, OrderingResult{}, err
	}
	return with, without, nil
}

// event is one envelope delivery on one path of one joiner.
type orderingEvent struct {
	env protocol.Envelope
	src protocol.Source
	toR bool
}

func runOrderingMode(cfg OrderingConfig, ordered bool) (OrderingResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	win := window.Sliding{Span: time.Minute}
	pred := predicate.NewEqui(0, 0)
	mk := func(rel tuple.Relation) (*joiner.Core, error) {
		return joiner.NewCore(joiner.Config{
			ID: 0, Rel: rel, Pred: pred, Window: win, Unordered: !ordered,
		})
	}
	rJoiner, err := mk(tuple.R)
	if err != nil {
		return OrderingResult{}, err
	}
	sJoiner, err := mk(tuple.S)
	if err != nil {
		return OrderingResult{}, err
	}
	stampers := make([]*protocol.Stamper, cfg.Routers)
	for i := range stampers {
		id := int32(i)
		stampers[i] = protocol.NewStamperFunc(id, func() uint64 { return 0 })
		rJoiner.AddRouter(id)
		sJoiner.AddRouter(id)
	}

	counts := make(map[uint64]int, cfg.Pairs) // pair id -> results
	emit := func(jr tuple.JoinResult) { counts[jr.Left.Seq]++ }

	// Each pair uses a distinct key so results attribute cleanly.
	// Tuples of a pair may come from different routers; all four
	// deliveries (r/s × store/join) are interleaved randomly, but each
	// (router, path) sequence stays FIFO because we queue per path and
	// drain randomly.
	type path struct {
		events []orderingEvent
	}
	paths := map[[3]int32]*path{} // (router, src, joinerIsR) -> queue
	pushEvent := func(router int32, src protocol.Source, toR bool, e orderingEvent) {
		k := [3]int32{router, int32(src), b2i(toR)}
		p := paths[k]
		if p == nil {
			p = &path{}
			paths[k] = p
		}
		p.events = append(p.events, e)
	}
	// punctuate appends each router's punctuation signal to all four of
	// its paths; like the real router service, the signal travels the
	// same queues as the tuples, so pairwise FIFO guarantees everything
	// it covers has already been delivered when it arrives.
	punctuate := func() {
		for _, st := range stampers {
			env := protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: st.RouterID(), Counter: st.Punctuation()}
			for _, src := range []protocol.Source{protocol.SourceStore, protocol.SourceJoin} {
				for _, toR := range []bool{true, false} {
					pushEvent(st.RouterID(), src, toR, orderingEvent{env, src, toR})
				}
			}
		}
	}
	for i := 0; i < cfg.Pairs; i++ {
		key := tuple.Int(int64(i))
		ts := int64(i)
		r := tuple.New(tuple.R, uint64(i), ts, key)
		s := tuple.New(tuple.S, uint64(i)+1_000_000, ts, key)
		rRouter := stampers[rng.Intn(len(stampers))]
		sRouter := stampers[rng.Intn(len(stampers))]
		rC, sC := rRouter.Next(), sRouter.Next()
		rStore := protocol.Envelope{Kind: protocol.KindTuple, RouterID: rRouter.RouterID(), Counter: rC, Stream: protocol.StreamStore, Tuple: r}
		rJoin := rStore
		rJoin.Stream = protocol.StreamJoin
		sStore := protocol.Envelope{Kind: protocol.KindTuple, RouterID: sRouter.RouterID(), Counter: sC, Stream: protocol.StreamStore, Tuple: s}
		sJoin := sStore
		sJoin.Stream = protocol.StreamJoin
		pushEvent(rRouter.RouterID(), protocol.SourceStore, true, orderingEvent{rStore, protocol.SourceStore, true})
		pushEvent(rRouter.RouterID(), protocol.SourceJoin, false, orderingEvent{rJoin, protocol.SourceJoin, false})
		pushEvent(sRouter.RouterID(), protocol.SourceStore, false, orderingEvent{sStore, protocol.SourceStore, false})
		pushEvent(sRouter.RouterID(), protocol.SourceJoin, true, orderingEvent{sJoin, protocol.SourceJoin, true})
		if i%16 == 15 {
			punctuate()
		}
	}
	punctuate()
	// Drain paths in random order; per-path FIFO is preserved because
	// each path's queue pops from the front.
	keys := make([][3]int32, 0, len(paths))
	for k := range paths {
		keys = append(keys, k)
	}
	for len(paths) > 0 {
		k := keys[rng.Intn(len(keys))]
		p, ok := paths[k]
		if !ok || len(p.events) == 0 {
			delete(paths, k)
			continue
		}
		ev := p.events[0]
		p.events = p.events[1:]
		if len(p.events) == 0 {
			delete(paths, k)
		}
		target := rJoiner
		if !ev.toR {
			target = sJoiner
		}
		target.HandleBatch([]protocol.Envelope{ev.env}, ev.src, emit)
	}
	rJoiner.Flush(emit)
	sJoiner.Flush(emit)

	res := OrderingResult{Protocol: ordered, Pairs: cfg.Pairs}
	for i := 0; i < cfg.Pairs; i++ {
		switch counts[uint64(i)] {
		case 0:
			res.Missed++
		case 1:
			res.Exact++
		default:
			res.Duplicated++
		}
	}
	return res, nil
}
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// FormatOrdering renders the E4 comparison.
func FormatOrdering(with, without OrderingResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %8s %8s %8s %11s\n", "mode", "pairs", "exact", "missed", "duplicated")
	for _, r := range []OrderingResult{with, without} {
		mode := "order-consistent"
		if !r.Protocol {
			mode = "unordered"
		}
		fmt.Fprintf(&sb, "%-18s %8d %8d %8d %11d\n", mode, r.Pairs, r.Exact, r.Missed, r.Duplicated)
	}
	return sb.String()
}
