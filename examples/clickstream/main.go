// Clickstream: joining ad impressions with later clicks — the
// click-stream analytics workload (Photon-style) that motivates
// low-selectivity equi-joins with hash routing.
//
// Relation R streams ad impressions (ad id, campaign); relation S
// streams clicks (ad id, cost). The join attributes conversions to the
// campaigns that showed the ad within the attribution window. The
// demo also scales the joiner groups out mid-stream to absorb a traffic
// burst, without migrating any window state.
//
//	go run ./examples/clickstream
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
	const attributionWindow = 30 * time.Second

	var mu sync.Mutex
	revenue := map[string]float64{} // campaign -> attributed spend
	conversions := 0
	eng, err := bistream.New(bistream.Config{
		Predicate: bistream.Equi(0, 0), // impression.adID = click.adID
		Window:    attributionWindow,
		Routers:   2,
		RJoiners:  2,
		SJoiners:  2,
		OnResult: func(jr bistream.JoinResult) {
			mu.Lock()
			defer mu.Unlock()
			campaign := jr.Left.Value(1).AsString()
			revenue[campaign] += jr.Right.Value(1).AsFloat()
			conversions++
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	campaigns := []string{"spring-sale", "brand", "retargeting"}
	rng := rand.New(rand.NewSource(7))
	now := time.Now().UnixMilli()

	// Phase 1: steady traffic. 5000 impressions, 10% click-through; a
	// click fires 1-10s after its impression.
	emit := func(n int, tsBase int64) {
		for i := 0; i < n; i++ {
			adID := rng.Int63n(1 << 30)
			ts := tsBase + int64(i)
			campaign := campaigns[rng.Intn(len(campaigns))]
			eng.Ingest(bistream.NewTuple(bistream.R, 0, ts,
				bistream.Int(adID), bistream.String(campaign)))
			if rng.Float64() < 0.10 {
				cost := 0.05 + rng.Float64()
				eng.Ingest(bistream.NewTuple(bistream.S, 0, ts+1000+rng.Int63n(9000),
					bistream.Int(adID), bistream.Float(cost)))
			}
		}
	}
	emit(5000, now)
	if err := eng.Quiesce(30 * time.Second); err != nil {
		log.Fatal(err)
	}

	// Phase 2: traffic burst — scale both joiner groups out first, the
	// way the autoscaler would. New tuples immediately use the wider
	// layout; stored state stays where it is and drains by expiry.
	if err := eng.ScaleJoiners(bistream.R, 4); err != nil {
		log.Fatal(err)
	}
	if err := eng.ScaleJoiners(bistream.S, 4); err != nil {
		log.Fatal(err)
	}
	emit(15000, now+5_000)
	if err := eng.Quiesce(30 * time.Second); err != nil {
		log.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("%d conversions attributed across %d campaigns (joiners scaled 2 -> 4 mid-stream):\n",
		conversions, len(revenue))
	for _, c := range campaigns {
		fmt.Printf("  %-12s $%8.2f\n", c, revenue[c])
	}
	st := eng.Snapshot()
	fmt.Printf("window now holds %d tuples across %d+%d joiners\n",
		st.WindowTuples, eng.NumJoiners(bistream.R), eng.NumJoiners(bistream.S))
}
