package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestQuantileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if got := Quantile(vals, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(vals, 0); got != 1 {
		t.Fatalf("min = %v", got)
	}
	if got := Quantile(vals, 1); got != 5 {
		t.Fatalf("max = %v", got)
	}
	if got := Quantile(vals, 0.25); got != 2 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{0, 10}
	if got := Quantile(vals, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
}

func TestQuantileEmptyNaN(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", vals)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 2))
		n := 1 + r.IntN(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
		}
		q1 := Quantile(vals, 0.25)
		q2 := Quantile(vals, 0.5)
		q3 := Quantile(vals, 0.75)
		return q1 <= q2 && q2 <= q3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanSum(t *testing.T) {
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("Mean broken")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) must be NaN")
	}
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Fatal("Sum broken")
	}
}

func TestBoxPlot(t *testing.T) {
	b := NewBoxPlot([]float64{1, 2, 3, 4, 100})
	if b.N != 5 || b.Min != 1 || b.Max != 100 || b.Median != 3 {
		t.Fatalf("BoxPlot = %+v", b)
	}
	if b.Mean != 22 {
		t.Fatalf("mean = %v, want 22", b.Mean)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles = %v/%v", b.Q1, b.Q3)
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	b := NewBoxPlot(nil)
	if b.N != 0 || !math.IsNaN(b.Median) {
		t.Fatalf("empty BoxPlot = %+v", b)
	}
}

func TestBoxPlotOrderingProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 3))
		n := 1 + r.IntN(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 1e6
		}
		b := NewBoxPlot(vals)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.Mean >= b.Min && b.Mean <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRankedCDF(t *testing.T) {
	c := NewRankedCDF([]float64{10, 60, 30})
	if c.GrandTotal != 100 {
		t.Fatalf("grand total = %v", c.GrandTotal)
	}
	if c.Totals[0] != 60 || c.Totals[2] != 10 {
		t.Fatalf("not sorted descending: %v", c.Totals)
	}
	if got := c.ShareOfTop(1); got != 0.6 {
		t.Fatalf("top-1 share = %v", got)
	}
	if got := c.ShareOfTop(2); got != 0.9 {
		t.Fatalf("top-2 share = %v", got)
	}
	if got := c.ShareOfTop(100); got != 1 {
		t.Fatalf("overlong top share = %v", got)
	}
	if got := c.ShareOfTop(0); got != 0 {
		t.Fatalf("top-0 share = %v", got)
	}
}

func TestRankedCDFEmpty(t *testing.T) {
	c := NewRankedCDF(nil)
	if c.ShareOfTop(5) != 0 {
		t.Fatal("empty CDF share must be 0")
	}
}

func TestRankedCDFMonotoneProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 4))
		n := 1 + r.IntN(100)
		totals := make([]float64, n)
		for i := range totals {
			totals[i] = r.Float64() * 1000
		}
		c := NewRankedCDF(totals)
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(c.Totals))) {
			return false
		}
		for i := 1; i < len(c.Cumulative); i++ {
			if c.Cumulative[i] < c.Cumulative[i-1]-1e-12 {
				return false
			}
		}
		return math.Abs(c.Cumulative[len(c.Cumulative)-1]-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.Add(80, 5)
	h.Add(123, 3)
	h.Add(80, 2)
	if h.Total() != 10 || h.Count(80) != 7 {
		t.Fatalf("counts wrong: total=%d c80=%d", h.Total(), h.Count(80))
	}
	v, c, ok := h.Mode()
	if !ok || v != 80 || c != 7 {
		t.Fatalf("Mode = %d/%d/%v", v, c, ok)
	}
	top := h.TopK(1)
	if len(top) != 1 || top[0].Value != 80 || math.Abs(top[0].Fraction-0.7) > 1e-12 {
		t.Fatalf("TopK = %+v", top)
	}
}

func TestHistogramModeEmptyAndTies(t *testing.T) {
	h := NewHistogram()
	if _, _, ok := h.Mode(); ok {
		t.Fatal("empty Mode must return ok=false")
	}
	h.Add(5, 1)
	h.Add(3, 1)
	v, _, _ := h.Mode()
	if v != 3 {
		t.Fatalf("tie must break to smaller value, got %d", v)
	}
}

// TestHistogramCacheMatchesMap checks the last-value write-back cache
// against a plain map: random Adds (runs of one value, n = 0 included) are
// interleaved with every read, and each read must agree with the map's
// answer — Count, Total, Mode, and TopK (same length and bins, zero-count
// values included).
func TestHistogramCacheMatchesMap(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		r := rand.New(rand.NewPCG(seed, 9))
		h := NewHistogram()
		ref := map[int]int64{}
		var total int64
		value := 0
		for step := 0; step < 400; step++ {
			if r.IntN(3) == 0 { // otherwise stay on the same value: a run
				value = r.IntN(12)
			}
			n := int64(r.IntN(4)) // 0 adds a value with a zero count
			h.Add(value, n)
			ref[value] += n
			total += n

			switch r.IntN(5) {
			case 0:
				v := r.IntN(14)
				if got := h.Count(v); got != ref[v] {
					t.Fatalf("seed %d step %d: Count(%d) = %d, want %d", seed, step, v, got, ref[v])
				}
			case 1:
				if h.Total() != total {
					t.Fatalf("seed %d step %d: Total = %d, want %d", seed, step, h.Total(), total)
				}
			case 2:
				v, c, ok := h.Mode()
				wv, wc, wok := refMode(ref, total)
				if v != wv || c != wc || ok != wok {
					t.Fatalf("seed %d step %d: Mode = %d/%d/%v, want %d/%d/%v", seed, step, v, c, ok, wv, wc, wok)
				}
			case 3:
				k := r.IntN(16)
				got, want := h.TopK(k), refTopK(ref, total, k)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: TopK(%d) has %d bins, want %d", seed, step, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: TopK(%d)[%d] = %+v, want %+v", seed, step, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func refMode(ref map[int]int64, total int64) (value int, count int64, ok bool) {
	if total == 0 {
		return 0, 0, false
	}
	for v, c := range ref {
		if !ok || c > count || (c == count && v < value) {
			value, count, ok = v, c, true
		}
	}
	return value, count, ok
}

func refTopK(ref map[int]int64, total int64, k int) []Bin {
	var bins []Bin
	for v, c := range ref {
		f := 0.0
		if total > 0 {
			f = float64(c) / float64(total)
		}
		bins = append(bins, Bin{Value: v, Count: c, Fraction: f})
	}
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].Count != bins[j].Count {
			return bins[i].Count > bins[j].Count
		}
		return bins[i].Value < bins[j].Value
	})
	return bins[:min(k, len(bins))]
}

func TestTopKOrderingProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 5))
		h := NewHistogram()
		for i := 0; i < 50; i++ {
			h.Add(r.IntN(20), int64(1+r.IntN(100)))
		}
		top := h.TopK(10)
		for i := 1; i < len(top); i++ {
			if top[i].Count > top[i-1].Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeries(t *testing.T) {
	origin := time.Date(2013, 11, 1, 0, 0, 0, 0, time.UTC)
	ts := NewTimeSeries(origin, 24*time.Hour)
	ts.Add(origin.Add(3*time.Hour), 10)
	ts.Add(origin.Add(20*time.Hour), 5)
	ts.Add(origin.Add(25*time.Hour), 7)
	if got := ts.At(origin); got != 15 {
		t.Fatalf("day-0 bucket = %v, want 15", got)
	}
	if got := ts.At(origin.Add(24 * time.Hour)); got != 7 {
		t.Fatalf("day-1 bucket = %v, want 7", got)
	}
	pts := ts.Points()
	if len(pts) != 2 || !pts[0].Time.Equal(origin) {
		t.Fatalf("Points = %+v", pts)
	}
	max, ok := ts.Max()
	if !ok || max.Value != 15 {
		t.Fatalf("Max = %+v/%v", max, ok)
	}
}

func TestTimeSeriesEmptyMax(t *testing.T) {
	ts := NewTimeSeries(time.Unix(0, 0).UTC(), time.Hour)
	if _, ok := ts.Max(); ok {
		t.Fatal("empty Max must return ok=false")
	}
}

func TestPercentile95(t *testing.T) {
	// 100 samples 1..100: 95th percentile billing drops the top 5 samples.
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if got := Percentile95(samples); got != 95 {
		t.Fatalf("Percentile95 = %v, want 95", got)
	}
	if got := Percentile95([]float64{7}); got != 7 {
		t.Fatalf("single sample = %v", got)
	}
	if got := Percentile95(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestPercentile95DropsSpikes(t *testing.T) {
	// A short attack spike in <5% of intervals must not raise the bill.
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 100
	}
	for i := 0; i < 40; i++ { // 4% of intervals spike
		samples[i] = 100000
	}
	if got := Percentile95(samples); got != 100 {
		t.Fatalf("Percentile95 with 4%% spikes = %v, want 100", got)
	}
}
