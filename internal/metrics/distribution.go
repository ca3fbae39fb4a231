// Package metrics provides the measurement toolkit used by the X-Search
// evaluation harness: empirical distributions (CDF/CCDF, percentiles), an
// HDR-style latency histogram, precision/recall, and plain-text rendering of
// the series that back each of the paper's figures.
package metrics

import (
	"math"
	"sort"
)

// Distribution accumulates float64 samples and answers distributional
// queries. The zero value is ready to use. It is not safe for concurrent
// use; wrap it or use Histogram for hot paths.
type Distribution struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (d *Distribution) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Min returns the smallest sample, or 0 if empty.
func (d *Distribution) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[0]
}

// Max returns the largest sample, or 0 if empty.
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank interpolation. Returns 0 on an empty distribution.
func (d *Distribution) Percentile(p float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.samples[lo]
	}
	frac := rank - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// Median returns the 50th percentile.
func (d *Distribution) Median() float64 { return d.Percentile(50) }

// CDF evaluates the empirical cumulative distribution function at x:
// the fraction of samples <= x.
func (d *Distribution) CDF(x float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	idx := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(n)
}

// CCDF evaluates the complementary CDF at x: the fraction of samples > x.
func (d *Distribution) CCDF(x float64) float64 { return 1 - d.CDF(x) }

// CDFSeries samples the empirical CDF at n evenly spaced points across
// [min, max] and returns (x, y) pairs. Used to plot Figure 7-style CDFs.
func (d *Distribution) CDFSeries(n int) []Point {
	if len(d.samples) == 0 || n <= 0 {
		return nil
	}
	d.ensureSorted()
	lo, hi := d.Min(), d.Max()
	pts := make([]Point, 0, n)
	if n == 1 || hi == lo {
		return []Point{{X: hi, Y: 1}}
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, Point{X: x, Y: d.CDF(x)})
	}
	return pts
}

// Point is a single (x, y) sample of a plotted series.
type Point struct {
	X float64
	Y float64
}
