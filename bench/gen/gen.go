// Package gen is the benchmark's load generator: a seeded tuple stream
// that is a pure function of (workload, seed), and an open-loop pacer
// that offers tuples on a precomputed schedule which never slows when
// the system under test does.
//
// The stream is held as columns (relation, key) rather than as tuple
// objects, so a multi-million-tuple run adds no pointers for the
// garbage collector to scan while the engine is being measured; Tuple
// materializes one tuple at ingest time, as a real source would.
package gen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"bistream/internal/tuple"
)

// Spec describes a stream's input properties — the traffic dimensions
// the join's cost depends on.
type Spec struct {
	// Name seeds the stream together with the run seed, so two
	// workloads never share a stream by accident.
	Name string
	// Keys is the size of the join-key universe; keys are 0..Keys-1.
	Keys int
	// ZipfS > 1 draws keys from a zipf law P(k) ∝ (ZipfV+k)^-ZipfS;
	// zero draws them uniformly.
	ZipfS, ZipfV float64
	// PerMS is the synthetic event-time density: tuple i carries
	// ts = i/PerMS milliseconds. Event time is decoupled from the wall
	// clock so the window population — and with it the work per tuple —
	// is a constant of the workload, not of how fast the code runs.
	PerMS int
}

// Stream is n generated tuples in ingest order. Tuple i has sequence
// number i+1 (so the later-ingested parent of a result is the one with
// the larger Seq) and event time TS(i).
type Stream struct {
	Rel   []uint8 // tuple.R or tuple.S
	Key   []int64
	perMS int64
}

// New generates the first n tuples of the stream (spec, seed).
func New(spec Spec, seed int64, n int) (*Stream, error) {
	if spec.Keys < 1 || spec.PerMS < 1 || n < 0 {
		return nil, fmt.Errorf("gen: bad spec %+v (n=%d)", spec, n)
	}
	if spec.ZipfS != 0 && (spec.ZipfS <= 1 || spec.ZipfV < 1) {
		return nil, fmt.Errorf("gen: zipf needs s > 1 and v >= 1, got s=%v v=%v", spec.ZipfS, spec.ZipfV)
	}
	h := fnv.New64a()
	h.Write([]byte(spec.Name))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ seed))
	var zipf *rand.Zipf
	if spec.ZipfS != 0 {
		zipf = rand.NewZipf(rng, spec.ZipfS, spec.ZipfV, uint64(spec.Keys-1))
	}
	s := &Stream{Rel: make([]uint8, n), Key: make([]int64, n), perMS: int64(spec.PerMS)}
	for i := 0; i < n; i++ {
		s.Rel[i] = uint8(rng.Intn(2))
		if zipf != nil {
			s.Key[i] = int64(zipf.Uint64())
		} else {
			s.Key[i] = int64(rng.Intn(spec.Keys))
		}
	}
	return s, nil
}

// Len returns the number of tuples.
func (s *Stream) Len() int { return len(s.Rel) }

// TS returns tuple i's event time in milliseconds.
func (s *Stream) TS(i int) int64 { return int64(i) / s.perMS }

// Tuple materializes tuple i: the join key at attribute 0 and the
// sequence number again as a payload attribute.
func (s *Stream) Tuple(i int) *tuple.Tuple {
	seq := uint64(i + 1)
	return tuple.New(tuple.Relation(s.Rel[i]), seq, s.TS(i), tuple.Int(s.Key[i]), tuple.Int(int64(seq)))
}

// Hash fingerprints the stream's content (relations, keys, event
// times), for the determinism tests and the run record.
func (s *Stream) Hash() uint64 {
	h := fnv.New64a()
	var b [17]byte
	for i := range s.Rel {
		b[0] = s.Rel[i]
		k, ts := uint64(s.Key[i]), uint64(s.TS(i))
		for j := 0; j < 8; j++ {
			b[1+j] = byte(k >> (8 * j))
			b[9+j] = byte(ts >> (8 * j))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// Pacer is an open-loop schedule: tuple i of a paced phase is due at
// Start + i/Rate, whatever the system under test is doing. Latencies
// are taken from Due, so the wait a stall imposes on later tuples is
// counted, and Lag reports how late the generator itself ran.
type Pacer struct {
	Start time.Time
	Rate  float64 // tuples per second
	// Lag[i] is how long after its due time tuple i was handed to emit,
	// in nanoseconds. It includes time the generator spent blocked on
	// earlier tuples — the schedule does not forgive backpressure.
	Lag []int64
}

// NewPacer prepares a schedule of n tuples at rate per second starting
// at start.
func NewPacer(start time.Time, rate float64, n int) *Pacer {
	return &Pacer{Start: start, Rate: rate, Lag: make([]int64, n)}
}

// Due returns tuple i's due time as an offset from Start.
func (p *Pacer) Due(i int) time.Duration {
	return time.Duration(float64(i) / p.Rate * float64(time.Second))
}

// pacerNap bounds how long the generator sleeps when nothing is due:
// short enough that wake-up jitter stays far below the latencies being
// measured, long enough not to spin a core the engine needs.
const pacerNap = 200 * time.Microsecond

// Run offers every tuple to emit no earlier than its due time, from the
// calling goroutine. It stops at the first emit error.
func (p *Pacer) Run(emit func(i int) error) error {
	n := len(p.Lag)
	for i := 0; i < n; {
		now := time.Since(p.Start)
		due := int(now.Seconds()*p.Rate) + 1 // tuples due by now
		if due > n {
			due = n
		}
		if i >= due {
			if wait := p.Due(i) - now; wait < pacerNap {
				time.Sleep(wait)
			} else {
				time.Sleep(pacerNap)
			}
			continue
		}
		for ; i < due; i++ {
			p.Lag[i] = int64(time.Since(p.Start) - p.Due(i))
			if err := emit(i); err != nil {
				return err
			}
		}
	}
	return nil
}
