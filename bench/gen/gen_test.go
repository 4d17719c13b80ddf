package gen

import (
	"errors"
	"testing"
	"time"
)

func TestStreamIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range Workloads {
		a, err := New(w.Stream, 42, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := New(w.Stream, 42, 5000)
		c, _ := New(w.Stream, 43, 5000)
		if a.Hash() != b.Hash() {
			t.Errorf("%s: same seed, different streams", w.Name)
		}
		if a.Hash() == c.Hash() {
			t.Errorf("%s: different seeds, same stream", w.Name)
		}
		// A longer stream extends a shorter one.
		long, _ := New(w.Stream, 42, 6000)
		long.Rel, long.Key = long.Rel[:5000], long.Key[:5000]
		if long.Hash() != a.Hash() {
			t.Errorf("%s: prefix of a longer stream differs", w.Name)
		}
	}
	x, _ := New(Workloads[0].Stream, 1, 1000)
	spec := Workloads[0].Stream
	spec.Name = "other"
	y, _ := New(spec, 1, 1000)
	if x.Hash() == y.Hash() {
		t.Error("two workload names share a stream")
	}
}

func TestTupleShape(t *testing.T) {
	st, _ := New(Spec{Name: "t", Keys: 10, PerMS: 50}, 1, 200)
	for _, i := range []int{0, 49, 50, 199} {
		tp := st.Tuple(i)
		if tp.Seq != uint64(i+1) || tp.TS != int64(i/50) || uint8(tp.Rel) != st.Rel[i] ||
			tp.Value(0).AsInt() != st.Key[i] {
			t.Errorf("tuple %d = %v", i, tp)
		}
	}
	if _, err := New(Spec{Name: "z", Keys: 10, PerMS: 1, ZipfS: 1.0, ZipfV: 1}, 1, 1); err == nil {
		t.Error("zipf s=1 accepted")
	}
}

// The guard against the legacy benches' keying, which joined nothing:
// every workload's reference result, at its nominal length, has to fall
// inside the results-per-tuple range the workload declares.
func TestResultsPerTupleInDeclaredRange(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length oracles")
	}
	for _, w := range Workloads {
		n := w.TotalTuples(NominalSeconds)
		st, err := New(w.Stream, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(w.Expected(st))) / float64(n)
		if got < w.ResultsPerTuple[0] || got > w.ResultsPerTuple[1] {
			t.Errorf("%s: %.3f results/tuple, declared %v", w.Name, got, w.ResultsPerTuple)
		}
	}
}

func TestPacerHoldsItsSchedule(t *testing.T) {
	const n, rate = 400, 2000.0 // 0.2 s
	p := NewPacer(time.Now(), rate, n)
	var sent []time.Duration
	err := p.Run(func(i int) error {
		sent = append(sent, time.Since(p.Start))
		if i == 100 {
			time.Sleep(20 * time.Millisecond) // a stall in the system under test
		}
		return nil
	})
	if err != nil || len(sent) != n {
		t.Fatalf("sent %d of %d, err %v", len(sent), n, err)
	}
	for i, at := range sent {
		if at < p.Due(i) {
			t.Fatalf("tuple %d sent %v before its due time %v", i, at, p.Due(i))
		}
		if p.Lag[i] < 0 {
			t.Fatalf("tuple %d has negative lag", i)
		}
	}
	// The schedule does not slow down for the stall: the tuples due
	// during it are late by what is left of it, and the generator
	// catches up instead of shifting everything after.
	if p.Lag[101] < int64(15*time.Millisecond) {
		t.Errorf("tuple after the stall lagged only %v", time.Duration(p.Lag[101]))
	}
	if end := sent[n-1]; end > p.Due(n-1)+15*time.Millisecond {
		t.Errorf("last tuple sent at %v, due %v: the stall shifted the schedule", end, p.Due(n-1))
	}
	stop := errors.New("stop")
	q := NewPacer(time.Now(), 1e6, 10)
	if err := q.Run(func(i int) error {
		if i == 3 {
			return stop
		}
		return nil
	}); err != stop {
		t.Errorf("Run returned %v", err)
	}
}
