package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Value = %d, want 7", g.Value())
	}
}

func TestMeterConvergesToConstantRate(t *testing.T) {
	m := NewMeter(5 * time.Second)
	now := time.Unix(0, 0)
	// 100 events/sec for 30 seconds, several decay horizons long.
	for i := 0; i < 3000; i++ {
		now = now.Add(10 * time.Millisecond)
		m.Observe(now, 1)
	}
	if r := m.Rate(); math.Abs(r-100) > 15 {
		t.Errorf("Rate = %v, want ≈100", r)
	}
	if m.Total() != 3000 {
		t.Errorf("Total = %d", m.Total())
	}
}

func TestMeterTracksRateChange(t *testing.T) {
	m := NewMeter(2 * time.Second)
	now := time.Unix(0, 0)
	for i := 0; i < 200; i++ {
		now = now.Add(10 * time.Millisecond)
		m.Observe(now, 1) // 100/s
	}
	for i := 0; i < 400; i++ {
		now = now.Add(5 * time.Millisecond)
		m.Observe(now, 1) // 200/s for 2s
	}
	if r := m.Rate(); r < 140 {
		t.Errorf("Rate = %v, should have risen toward 200", r)
	}
}

func TestMeterSameInstantBurst(t *testing.T) {
	m := NewMeter(time.Second)
	now := time.Unix(0, 0)
	m.Observe(now, 1)
	m.Observe(now, 5) // zero dt must not divide by zero
	if m.Total() != 6 {
		t.Errorf("Total = %d", m.Total())
	}
	// A batch observed under one clock read belongs to the interval the
	// next time step closes: 100 batches of 5+5 events, one per 100ms,
	// is 100 events/s however the batch was split into calls.
	for i := 0; i < 100; i++ {
		now = now.Add(100 * time.Millisecond)
		m.Observe(now, 5)
		m.Observe(now, 5)
	}
	if r := m.Rate(); math.Abs(r-100) > 1 {
		t.Errorf("Rate = %v after same-instant batches at 100 events/s", r)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 0.01 {
		t.Errorf("Mean = %v", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 61 {
		t.Errorf("P50 = %d, want ≈50", p50)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 10000; i++ {
		h.Observe(i * 1000) // 0 .. ~10M
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := q * 10000 * 1000
		got := float64(h.Quantile(q))
		if want > 0 && math.Abs(got-want)/want > 0.10 {
			t.Errorf("Quantile(%v) = %v, want ≈%v", q, got, want)
		}
	}
}

func TestHistogramClampsAndBounds(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 {
		t.Errorf("negative observation should clamp: min=%d", h.Min())
	}
	h.Observe(math.MaxInt64)
	if h.Max() != math.MaxInt64 {
		t.Errorf("Max = %d", h.Max())
	}
	if q := h.Quantile(2); q > math.MaxInt64 || q < 0 {
		t.Errorf("Quantile(2) out of bounds: %d", q)
	}
	_ = h.Quantile(-1)
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	f := func(vals []uint32) bool {
		for _, v := range vals {
			h.Observe(int64(v))
		}
		last := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			cur := h.Quantile(q)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(10 * time.Millisecond)
	h.ObserveDuration(20 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Errorf("Count = %d", snap.Count)
	}
	if snap.Min > snap.P50 || snap.P50 > snap.Max {
		t.Errorf("snapshot not ordered: %+v", snap)
	}
}

func TestBucketLowMonotone(t *testing.T) {
	last := int64(-1)
	for b := 0; b < 64*16; b++ {
		lo := bucketLow(b)
		if lo < last {
			t.Fatalf("bucketLow(%d)=%d < bucketLow(prev)=%d", b, lo, last)
		}
		last = lo
	}
}

func TestBucketOfWithinBounds(t *testing.T) {
	f := func(v int64) bool {
		b := bucketOf(v)
		return b >= 0 && b < 64*16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	t0 := time.Unix(0, 0)
	r.Record("rate", t0, 300)
	r.Record("rate", t0.Add(time.Minute), 400)
	r.Record("pods", t0, 1)
	s := r.Series("rate")
	if len(s) != 2 || s[0].V != 300 || s[1].V != 400 {
		t.Errorf("Series = %v", s)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "pods" || names[1] != "rate" {
		t.Errorf("Names = %v", names)
	}
	if r.Series("nope") != nil && len(r.Series("nope")) != 0 {
		t.Error("missing series should be empty")
	}
}

func TestSeriesHelpers(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := Series{
		{T: t0, V: 1},
		{T: t0.Add(time.Minute), V: 5},
		{T: t0.Add(2 * time.Minute), V: 3},
	}
	if s.Max() != 5 {
		t.Errorf("Max = %v", s.Max())
	}
	if got := s.At(t0.Add(90 * time.Second)); got != 5 {
		t.Errorf("At(t+90s) = %v, want 5 (last value before)", got)
	}
	if got := s.At(t0.Add(-time.Second)); got != 0 {
		t.Errorf("At(before start) = %v, want 0", got)
	}
	vals := s.Values()
	if len(vals) != 3 || vals[2] != 3 {
		t.Errorf("Values = %v", vals)
	}
	var empty Series
	if empty.Max() != 0 {
		t.Error("empty Max should be 0")
	}
}

func TestFormatASCII(t *testing.T) {
	r := NewRecorder()
	t0 := time.Unix(0, 0)
	for i := 0; i < 60; i++ {
		r.Record("cpu", t0.Add(time.Duration(i)*time.Minute), float64(i%10))
	}
	out := r.FormatASCII("cpu", 40, 8)
	if !strings.Contains(out, "cpu") || !strings.Contains(out, "*") {
		t.Errorf("chart output: %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 10 { // header + 8 rows + axis
		t.Errorf("chart has %d lines", lines)
	}
	if out := r.FormatASCII("missing", 40, 8); !strings.Contains(out, "no data") {
		t.Errorf("missing series: %q", out)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record("x", time.Unix(int64(j), 0), float64(i))
			}
		}(i)
	}
	wg.Wait()
	if got := len(r.Series("x")); got != 400 {
		t.Errorf("series length = %d", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkMeterObserve(b *testing.B) {
	m := NewMeter(10 * time.Second)
	now := time.Unix(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Microsecond)
		m.Observe(now, 1)
	}
}

func TestRecorderWriteCSV(t *testing.T) {
	r := NewRecorder()
	t0 := time.Unix(100, 0)
	r.Record("rate", t0, 300)
	r.Record("pods", t0, 1)
	r.Record("rate", t0.Add(30*time.Second), 400)
	r.Record("pods", t0.Add(time.Minute), 2)
	var buf strings.Builder
	if err := r.WriteCSV(&buf, "rate", "pods"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "seconds,rate,pods" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.000,300") {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Last-value resampling: at t+60 the rate is still 400, pods 2.
	if !strings.HasPrefix(lines[3], "60.000,400") || !strings.HasSuffix(lines[3], "2.000000") {
		t.Errorf("row 3 = %q", lines[3])
	}
	// Default: all series, sorted names.
	var buf2 strings.Builder
	if err := r.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf2.String(), "seconds,pods,rate") {
		t.Errorf("default header = %q", strings.SplitN(buf2.String(), "\n", 2)[0])
	}
}
