// Package matrix implements the join-matrix model (Stamos & Young's
// symmetric fragment-and-replicate scheme, §2.3/§2.4.1 and Figure 3(a)
// of the source text) as the baseline the join-biclique model is
// compared against: p processing units arranged as a rows×cols grid,
// R tuples assigned to a row and replicated across its cols cells,
// S tuples assigned to a column and replicated across its rows cells.
// Every (r, s) pair meets at exactly one cell, which is what makes the
// model correct for arbitrary theta-joins — at the price of storing
// each tuple rows (or cols) times, the memory overhead the biclique
// model eliminates.
package matrix

import (
	"fmt"

	"bistream/internal/index"
	"bistream/internal/metrics"
	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// Config configures a Matrix.
type Config struct {
	// Pred is the join predicate.
	Pred predicate.Predicate
	// Window is the time-based sliding window.
	Window window.Sliding
	// Rows and Cols shape the grid: R tuples replicate across a row
	// (Cols copies), S tuples down a column (Rows copies).
	Rows, Cols int
	// ArchivePeriodMS is the chained index archive period per cell.
	// Zero means the joiners' default, index.DefaultArchivePeriod.
	ArchivePeriodMS int64
}

// Stats snapshots the matrix's cost counters for the model-comparison
// experiment.
type Stats struct {
	Cells        int
	TuplesIn     int64
	Copies       int64 // unit-level message/storage copies created
	StoredTuples int   // live tuples summed over cells (with replication)
	MemBytes     int64 // live bytes summed over cells
	Comparisons  int64
	Results      int64
	Expired      int64
}

// Matrix is a synchronous in-process join-matrix processor. It is not
// safe for concurrent use.
type Matrix struct {
	cfg   Config
	cells [][]*cell
	rrRow uint64
	rrCol uint64

	tuplesIn    metrics.Counter
	copies      metrics.Counter
	comparisons metrics.Counter
	results     metrics.Counter
	expired     metrics.Counter
}

// cell is one processing unit holding a fragment of R and a fragment
// of S.
type cell struct {
	rIdx *index.Chained
	sIdx *index.Chained
}

// New builds a rows×cols join matrix.
func New(cfg Config) (*Matrix, error) {
	if cfg.Pred == nil {
		return nil, fmt.Errorf("matrix: predicate is required")
	}
	if cfg.Window.Span <= 0 {
		return nil, fmt.Errorf("matrix: window span must be positive")
	}
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return nil, fmt.Errorf("matrix: grid %dx%d invalid", cfg.Rows, cfg.Cols)
	}
	if cfg.ArchivePeriodMS <= 0 {
		cfg.ArchivePeriodMS = index.DefaultArchivePeriod(cfg.Pred, cfg.Window)
	}
	m := &Matrix{cfg: cfg}
	m.cells = make([][]*cell, cfg.Rows)
	for i := range m.cells {
		m.cells[i] = make([]*cell, cfg.Cols)
		for j := range m.cells[i] {
			rIdx, err := index.NewChained(index.ForPredicate(cfg.Pred, tuple.R), cfg.ArchivePeriodMS, cfg.Window)
			if err != nil {
				return nil, err
			}
			sIdx, err := index.NewChained(index.ForPredicate(cfg.Pred, tuple.S), cfg.ArchivePeriodMS, cfg.Window)
			if err != nil {
				return nil, err
			}
			m.cells[i][j] = &cell{rIdx: rIdx, sIdx: sIdx}
		}
	}
	return m, nil
}

// Process routes one tuple through the matrix: assign it to a row (R)
// or column (S) round-robin, and at every cell of that row/column join
// it against the opposite fragment, discard stale data, and store it.
func (m *Matrix) Process(t *tuple.Tuple, emit func(tuple.JoinResult)) {
	m.tuplesIn.Inc()
	if t.Rel == tuple.R {
		row := int(m.rrRow % uint64(m.cfg.Rows))
		m.rrRow++
		for j := 0; j < m.cfg.Cols; j++ {
			m.copies.Inc()
			m.processAtCell(m.cells[row][j], t, emit)
		}
		return
	}
	col := int(m.rrCol % uint64(m.cfg.Cols))
	m.rrCol++
	for i := 0; i < m.cfg.Rows; i++ {
		m.copies.Inc()
		m.processAtCell(m.cells[i][col], t, emit)
	}
}

func (m *Matrix) processAtCell(c *cell, t *tuple.Tuple, emit func(tuple.JoinResult)) {
	own, opp := c.rIdx, c.sIdx
	if t.Rel == tuple.S {
		own, opp = c.sIdx, c.rIdx
	}
	// Theorem 1 holds per cell too: the arriving tuple expires the
	// opposite fragment's stale sub-indexes.
	m.expired.Add(int64(opp.Expire(t.TS)))
	plan := m.cfg.Pred.Plan(t)
	opp.Probe(&plan, func(stored *tuple.Tuple) bool {
		m.comparisons.Inc()
		var r, s *tuple.Tuple
		if t.Rel == tuple.R {
			r, s = t, stored
		} else {
			r, s = stored, t
		}
		if m.cfg.Window.Contains(stored.TS, t.TS) && m.cfg.Pred.Match(r, s) {
			m.results.Inc()
			emit(tuple.NewJoinResult(r, s))
		}
		return true
	})
	own.Insert(t)
}

// Stats snapshots the cost counters.
func (m *Matrix) Stats() Stats {
	st := Stats{
		Cells:       m.cfg.Rows * m.cfg.Cols,
		TuplesIn:    m.tuplesIn.Value(),
		Copies:      m.copies.Value(),
		Comparisons: m.comparisons.Value(),
		Results:     m.results.Value(),
		Expired:     m.expired.Value(),
	}
	for _, row := range m.cells {
		for _, c := range row {
			st.StoredTuples += c.rIdx.Len() + c.sIdx.Len()
			st.MemBytes += c.rIdx.MemBytes() + c.sIdx.MemBytes()
		}
	}
	return st
}

// CopiesPerTuple returns the average unit-level copies per input tuple
// (the √p communication/storage factor of §2.4.1).
func (m *Matrix) CopiesPerTuple() float64 {
	in := m.tuplesIn.Value()
	if in == 0 {
		return 0
	}
	return float64(m.copies.Value()) / float64(in)
}
