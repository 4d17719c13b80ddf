package matrix

import (
	"math/rand"
	"testing"
	"time"

	"bistream/internal/index"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

func testWin() window.Sliding { return window.Sliding{Span: time.Minute} }

func newMatrix(t *testing.T, pred predicate.Predicate, rows, cols int) *Matrix {
	t.Helper()
	m, err := New(Config{Pred: pred, Window: testWin(), Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Window: testWin(), Rows: 2, Cols: 2}); err == nil {
		t.Error("nil predicate accepted")
	}
	if _, err := New(Config{Pred: predicate.NewEqui(0, 0), Rows: 2, Cols: 2}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(Config{Pred: predicate.NewEqui(0, 0), Window: testWin(), Rows: 0, Cols: 2}); err == nil {
		t.Error("zero rows accepted")
	}
}

func refJoin(tuples []*tuple.Tuple, pred predicate.Predicate, winMs int64) map[[2]uint64]int {
	want := map[[2]uint64]int{}
	for _, a := range tuples {
		if a.Rel != tuple.R {
			continue
		}
		for _, b := range tuples {
			if b.Rel != tuple.S {
				continue
			}
			d := a.TS - b.TS
			if d < 0 {
				d = -d
			}
			if d <= winMs && pred.Match(a, b) {
				want[[2]uint64{a.Seq, b.Seq}] = 1
			}
		}
	}
	return want
}

func runAll(m *Matrix, tuples []*tuple.Tuple) map[[2]uint64]int {
	got := map[[2]uint64]int{}
	for _, t := range tuples {
		m.Process(t, func(jr tuple.JoinResult) { got[jr.Key()]++ })
	}
	return got
}

func workload(n int, keys int64, seed int64) []*tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		rel := tuple.R
		if i%2 == 1 {
			rel = tuple.S
		}
		out = append(out, tuple.New(rel, uint64(i+1), int64(i*10), tuple.Int(rng.Int63n(keys))))
	}
	return out
}

func verify(t *testing.T, got, want map[[2]uint64]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d pairs, want %d", len(got), len(want))
	}
	for k, n := range got {
		if n != 1 {
			t.Errorf("pair %v produced %d times", k, n)
		}
		if want[k] == 0 {
			t.Errorf("unexpected pair %v", k)
		}
	}
}

func TestEquiJoinExactlyOnce(t *testing.T) {
	pred := predicate.NewEqui(0, 0)
	m := newMatrix(t, pred, 3, 3)
	tuples := workload(600, 20, 1)
	got := runAll(m, tuples)
	verify(t, got, refJoin(tuples, pred, testWin().SpanMillis()))
}

func TestBandJoinExactlyOnce(t *testing.T) {
	pred := predicate.NewBand(0, 0, 2)
	m := newMatrix(t, pred, 2, 4)
	tuples := workload(400, 25, 2)
	got := runAll(m, tuples)
	verify(t, got, refJoin(tuples, pred, testWin().SpanMillis()))
}

func TestThetaJoinExactlyOnce(t *testing.T) {
	pred := predicate.NewTheta(0, 0, predicate.GT)
	m := newMatrix(t, pred, 2, 2)
	tuples := workload(200, 40, 3)
	got := runAll(m, tuples)
	verify(t, got, refJoin(tuples, pred, testWin().SpanMillis()))
}

func TestReplicationFactor(t *testing.T) {
	// 4x4 grid: each R tuple is copied to 4 cells (its row), each S
	// tuple to 4 cells (its column) — the √p factor with p=16.
	m := newMatrix(t, predicate.NewEqui(0, 0), 4, 4)
	tuples := workload(100, 10, 4)
	runAll(m, tuples)
	if got := m.CopiesPerTuple(); got != 4 {
		t.Errorf("CopiesPerTuple = %v, want 4", got)
	}
	st := m.Stats()
	if st.Cells != 16 || st.TuplesIn != 100 || st.Copies != 400 {
		t.Errorf("stats = %+v", st)
	}
	// Every live tuple is stored with replication: 100 tuples in the
	// window × 4 copies.
	if st.StoredTuples != 400 {
		t.Errorf("StoredTuples = %d, want 400", st.StoredTuples)
	}
	if st.MemBytes <= 0 {
		t.Error("MemBytes should be positive")
	}
}

func TestWindowExpiryBoundsMemory(t *testing.T) {
	m, err := New(Config{
		Pred:   predicate.NewEqui(0, 0),
		Window: window.Sliding{Span: time.Second},
		Rows:   2, Cols: 2,
		ArchivePeriodMS: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 seconds of data at 10ms steps; window holds ~100 per relation.
	for i := 0; i < 10000; i++ {
		rel := tuple.R
		if i%2 == 1 {
			rel = tuple.S
		}
		m.Process(tuple.New(rel, uint64(i+1), int64(i*10), tuple.Int(int64(i%10))), func(tuple.JoinResult) {})
	}
	st := m.Stats()
	if st.Expired == 0 {
		t.Error("nothing expired")
	}
	// ~200 live logical tuples × 2 copies each = ~400 stored, plus
	// archive-period slack; must be nowhere near 10000×2.
	if st.StoredTuples > 1500 {
		t.Errorf("StoredTuples = %d, window not bounding memory", st.StoredTuples)
	}
}

// TestDefaultArchivePeriodMatchesJoiners: a cell's chains seal at the
// joiners' default period, index.DefaultArchivePeriod — every W/4 for
// a band chain and W/16 for any other (equi, theta) — unless
// ArchivePeriodMS is set. Each case stores one R tuple every 500 ms
// over a 16 s window into a 1×1 grid and compares the cell's R chain
// with a chain built at the expected period from the same tuples.
func TestDefaultArchivePeriodMatchesJoiners(t *testing.T) {
	win := window.Sliding{Span: 16 * time.Second}
	cases := []struct {
		name     string
		pred     predicate.Predicate
		periodMS int64 // configured; 0 is the default
		want     int64 // period the cell's chain must seal at
	}{
		{"equi/default", predicate.NewEqui(0, 0), 0, 1000},
		{"band/default", predicate.NewBand(0, 0, 1), 0, 4000},
		{"theta/default", predicate.NewTheta(0, 0, predicate.LT), 0, 1000},
		{"band/explicit", predicate.NewBand(0, 0, 1), 1000, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.periodMS == 0 {
				if got := index.DefaultArchivePeriod(tc.pred, win); got != tc.want {
					t.Fatalf("index.DefaultArchivePeriod = %d ms, want %d", got, tc.want)
				}
			}
			m, err := New(Config{Pred: tc.pred, Window: win, Rows: 1, Cols: 1, ArchivePeriodMS: tc.periodMS})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := index.NewChained(index.ForPredicate(tc.pred, tuple.R), tc.want, win)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ {
				tp := tuple.New(tuple.R, uint64(i+1), int64(i*500), tuple.Int(1))
				m.Process(tp, func(tuple.JoinResult) {})
				ref.Insert(tp)
			}
			if got, want := m.cells[0][0].rIdx.NumSubIndexes(), ref.NumSubIndexes(); got != want || want < 4 {
				t.Errorf("cell chain has %d sub-indexes, a chain at P = %d ms has %d", got, tc.want, want)
			}
		})
	}
}

func TestEmptyStats(t *testing.T) {
	m := newMatrix(t, predicate.NewEqui(0, 0), 1, 1)
	if m.CopiesPerTuple() != 0 {
		t.Error("CopiesPerTuple on empty matrix should be 0")
	}
	st := m.Stats()
	if st.TuplesIn != 0 || st.Results != 0 || st.StoredTuples != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAsymmetricGrid(t *testing.T) {
	// 1×4: R replicated to all 4 cells, S to exactly 1 — the extreme
	// the biclique generalizes.
	pred := predicate.NewEqui(0, 0)
	m := newMatrix(t, pred, 1, 4)
	tuples := workload(200, 10, 5)
	got := runAll(m, tuples)
	verify(t, got, refJoin(tuples, pred, testWin().SpanMillis()))
	st := m.Stats()
	// 100 R tuples × 4 + 100 S tuples × 1 = 500 copies.
	if st.Copies != 500 {
		t.Errorf("Copies = %d, want 500", st.Copies)
	}
}

func BenchmarkMatrixEqui4x4(b *testing.B) {
	m, _ := New(Config{Pred: predicate.NewEqui(0, 0), Window: testWin(), Rows: 4, Cols: 4})
	emit := func(tuple.JoinResult) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel := tuple.R
		if i%2 == 1 {
			rel = tuple.S
		}
		m.Process(tuple.New(rel, uint64(i+1), int64(i), tuple.Int(int64(i&1023))), emit)
	}
}
