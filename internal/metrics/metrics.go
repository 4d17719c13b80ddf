// Package metrics provides the lightweight instrumentation primitives
// used throughout the system: atomic counters and gauges, exponentially
// weighted rate meters (the router's "events per second" statistic),
// latency histograms with quantile estimation, and a time-series
// recorder that captures the per-minute curves plotted in the
// experiments (input rate, CPU utilization, memory load, replica count).
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. live window bytes).
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta, which may be negative.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Meter measures an event rate as an exponentially weighted moving
// average over a configurable horizon. It is driven by explicit Observe
// calls carrying the clock's notion of now, which keeps it correct under
// both the wall clock and the simulated clock.
type Meter struct {
	mu      sync.Mutex
	alphaNs float64 // decay horizon in nanoseconds
	rate    float64 // events per second
	last    time.Time
	pending int64 // events observed at or before last, not yet in rate
	total   int64
}

// NewMeter returns a meter smoothing over the given horizon. A typical
// horizon is 5-30 seconds.
func NewMeter(horizon time.Duration) *Meter {
	if horizon <= 0 {
		horizon = 10 * time.Second
	}
	return &Meter{alphaNs: float64(horizon.Nanoseconds())}
}

// Observe records n events occurring at the given instant.
func (m *Meter) Observe(now time.Time, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += n
	if m.last.IsZero() {
		m.last = now
		return
	}
	dt := float64(now.Sub(m.last).Nanoseconds())
	if dt <= 0 {
		// Same-instant burst (a batch observed under one clock read):
		// its events belong to the interval the next time step closes.
		m.pending += n
		return
	}
	instant := float64(n+m.pending) / (dt / 1e9)
	m.pending = 0
	w := 1 - math.Exp(-dt/m.alphaNs)
	m.rate += w * (instant - m.rate)
	m.last = now
}

// Rate returns the smoothed events-per-second estimate.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rate
}

// Total returns the number of events observed since creation.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Histogram collects duration (or arbitrary int64) observations and
// reports quantiles. It uses logarithmic bucketing: 64 major buckets by
// bit width, 16 minor buckets each, giving <7% relative quantile error
// across the full int64 range with a fixed 8KB footprint, in the spirit
// of HDR histograms.
type Histogram struct {
	mu      sync.Mutex
	buckets [64 * 16]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, max: math.MinInt64}
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 16 {
		return int(v) // exact buckets for small values
	}
	major := 63 - leadingZeros64(uint64(v))
	minor := int((v >> (uint(major) - 4)) & 15)
	return major*16 + minor
}

func leadingZeros64(v uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

func bucketLow(b int) int64 {
	if b < 16 {
		return int64(b) // exact buckets for small values
	}
	if b < 64 {
		return 16 // unreachable bucket range; keep bucketLow monotone
	}
	major := b / 16
	minor := b % 16
	low := uint64(1)<<uint(major) + uint64(minor)<<(uint(major)-4)
	if low > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(low)
}

// Observe records a value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0,1]).
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	for b, n := range h.buckets {
		seen += n
		if seen > target {
			low := bucketLow(b)
			if low < h.min {
				low = h.min
			}
			if low > h.max {
				low = h.max
			}
			return low
		}
	}
	return h.max
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Snapshot summarises the histogram.
type Snapshot struct {
	Count                   int64
	Sum                     int64
	Mean                    float64
	Min, P50, P95, P99, Max int64
}

// Snapshot returns a consistent summary of the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Point is one sample of a named series.
type Point struct {
	T time.Time
	V float64
}

// Series is an ordered list of samples.
type Series []Point

// Values extracts just the sample values.
func (s Series) Values() []float64 {
	out := make([]float64, len(s))
	for i, p := range s {
		out[i] = p.V
	}
	return out
}

// Max returns the largest sample value, or 0 for an empty series.
func (s Series) Max() float64 {
	var m float64
	for i, p := range s {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// At returns the value of the last sample at or before t, or 0.
func (s Series) At(t time.Time) float64 {
	var v float64
	for _, p := range s {
		if p.T.After(t) {
			break
		}
		v = p.V
	}
	return v
}

// Recorder captures named time series during an experiment run. It is
// safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	series map[string]Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]Series)}
}

// Record appends a sample to the named series.
func (r *Recorder) Record(name string, t time.Time, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series[name] = append(r.series[name], Point{T: t, V: v})
}

// Series returns a copy of the named series.
func (r *Recorder) Series(name string) Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(Series(nil), r.series[name]...)
}

// Names returns the sorted series names.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteCSV emits the named series as CSV with a time column (seconds
// since the first sample across the chosen series) and one column per
// series, resampled by last-value at each distinct sample instant — the
// format the experiment CLI uses to export figure data for plotting.
func (r *Recorder) WriteCSV(w io.Writer, names ...string) error {
	if len(names) == 0 {
		names = r.Names()
	}
	series := make([]Series, len(names))
	instantSet := map[time.Time]struct{}{}
	var origin time.Time
	for i, n := range names {
		series[i] = r.Series(n)
		for _, p := range series[i] {
			instantSet[p.T] = struct{}{}
			if origin.IsZero() || p.T.Before(origin) {
				origin = p.T
			}
		}
	}
	instants := make([]time.Time, 0, len(instantSet))
	for t := range instantSet {
		instants = append(instants, t)
	}
	sort.Slice(instants, func(i, j int) bool { return instants[i].Before(instants[j]) })

	cw := csv.NewWriter(w)
	header := append([]string{"seconds"}, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, t := range instants {
		row[0] = strconv.FormatFloat(t.Sub(origin).Seconds(), 'f', 3, 64)
		for i, s := range series {
			row[i+1] = strconv.FormatFloat(s.At(t), 'f', 6, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FormatASCII renders the named series as a small ASCII chart, used by
// the experiment CLI to echo the figures from the text. width is the
// number of sample columns; the series is resampled by last-value.
func (r *Recorder) FormatASCII(name string, width, height int) string {
	s := r.Series(name)
	if len(s) == 0 || width <= 0 || height <= 0 {
		return fmt.Sprintf("%s: <no data>\n", name)
	}
	start, end := s[0].T, s[len(s)-1].T
	span := end.Sub(start)
	if span <= 0 {
		span = time.Second
	}
	cols := make([]float64, width)
	denom := float64(width - 1)
	if denom <= 0 {
		denom = 1
	}
	for i := range cols {
		t := start.Add(time.Duration(float64(span) * float64(i) / denom))
		cols[i] = s.At(t)
	}
	lo, hi := cols[0], cols[0]
	for _, v := range cols {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = make([]byte, width)
		for x := range grid[y] {
			grid[y][x] = ' '
		}
	}
	for x, v := range cols {
		y := int(float64(height-1) * (v - lo) / (hi - lo))
		grid[height-1-y][x] = '*'
	}
	out := fmt.Sprintf("%s  [min=%.1f max=%.1f]\n", name, lo, hi)
	for _, row := range grid {
		out += "|" + string(row) + "\n"
	}
	out += "+" + repeat('-', width) + "\n"
	return out
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
