// Stocks: a band join between trades on two venues — the
// high-selectivity non-equi predicate that forces the random
// (broadcast) routing strategy of §3.2.
//
// Relation R streams trades from venue A (price, symbol id), relation S
// from venue B. The query finds cross-venue trade pairs whose prices
// differ by at most $0.05 within a 10-second window — a toy arbitrage
// detector. Because a band predicate can match across any hash
// partition, every joiner of the opposite relation receives each tuple.
//
//	go run ./examples/stocks
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"bistream"
)

func main() {
	var mu sync.Mutex
	var pairs int
	var tightest float64 = 1e9

	eng, err := bistream.New(bistream.Config{
		// |priceA - priceB| <= 0.05 on attribute 0.
		Predicate: bistream.Band(0, 0, 0.05),
		Window:    10 * time.Second,
		RJoiners:  3,
		SJoiners:  3,
		OnResult: func(jr bistream.JoinResult) {
			mu.Lock()
			defer mu.Unlock()
			pairs++
			d := jr.Left.Value(0).AsFloat() - jr.Right.Value(0).AsFloat()
			if d < 0 {
				d = -d
			}
			if d < tightest {
				tightest = d
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	// Both venues quote around a random-walking mid price.
	rng := rand.New(rand.NewSource(99))
	mid := 100.0
	now := time.Now().UnixMilli()
	const trades = 4000
	for i := 0; i < trades; i++ {
		mid += rng.NormFloat64() * 0.02
		ts := now + int64(i)*5 // one trade per 5ms per venue
		priceA := mid + rng.NormFloat64()*0.03
		priceB := mid + rng.NormFloat64()*0.03
		eng.Ingest(bistream.NewTuple(bistream.R, 0, ts,
			bistream.Float(priceA), bistream.Int(rng.Int63n(50))))
		eng.Ingest(bistream.NewTuple(bistream.S, 0, ts,
			bistream.Float(priceB), bistream.Int(rng.Int63n(50))))
	}
	if err := eng.Quiesce(time.Minute); err != nil {
		log.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	st := eng.Snapshot()
	var fanout, routed int64
	for _, r := range st.Routers {
		fanout += r.JoinFanout
		routed += r.TuplesRouted
	}
	fmt.Printf("%d cross-venue pairs within $0.05 (tightest $%.4f)\n", pairs, tightest)
	fmt.Printf("broadcast routing: %.1f join copies per tuple (group size 3)\n",
		float64(fanout)/float64(routed))
	fmt.Printf("window bounded at %d live trades by Theorem 1 expiry\n", st.WindowTuples)
}
