package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if len(d.samples) != 0 || d.Min() != 0 || d.Max() != 0 ||
		d.Median() != 0 || d.CDF(1) != 0 {
		t.Error("empty distribution should report zeros")
	}
}

// addAll adds every sample of vs to d.
func addAll(d *Distribution, vs []float64) {
	for _, v := range vs {
		d.Add(v)
	}
}

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	addAll(&d, []float64{5, 1, 3, 2, 4})
	if len(d.samples) != 5 {
		t.Fatalf("%d samples", len(d.samples))
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Errorf("Min/Max = %f/%f", d.Min(), d.Max())
	}
	if d.Median() != 3 {
		t.Errorf("Median = %f", d.Median())
	}
}

func TestPercentile(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01},
	}
	for _, tt := range tests {
		if got := d.Percentile(tt.p); math.Abs(got-tt.want) > 0.02 {
			t.Errorf("Percentile(%v) = %f, want ~%f", tt.p, got, tt.want)
		}
	}
}

func TestCDFCCDF(t *testing.T) {
	var d Distribution
	addAll(&d, []float64{1, 2, 3, 4})
	if got := d.CDF(2); got != 0.5 {
		t.Errorf("CDF(2) = %f, want 0.5", got)
	}
	if got := d.CDF(0); got != 0 {
		t.Errorf("CDF(0) = %f, want 0", got)
	}
	if got := d.CDF(4); got != 1 {
		t.Errorf("CDF(4) = %f, want 1", got)
	}
	if got := d.CCDF(2); got != 0.5 {
		t.Errorf("CCDF(2) = %f, want 0.5", got)
	}
}

// CDF must be monotone non-decreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		var d Distribution
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v)
			}
		}
		if len(d.samples) == 0 {
			return true
		}
		last := -1.0
		vals := append([]float64{}, probe...)
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				vals[i] = 0
			}
		}
		// Sort probes ascending by insertion into distribution helper.
		var p Distribution
		addAll(&p, vals)
		p.ensureSorted()
		for _, x := range p.samples {
			y := d.CDF(x)
			if y < last-1e-12 || y < 0 || y > 1 {
				return false
			}
			last = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDFSeries(t *testing.T) {
	var d Distribution
	for i := 0; i < 1000; i++ {
		d.Add(float64(i))
	}
	pts := d.CDFSeries(11)
	if len(pts) != 11 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Y > 0.01 || pts[10].Y != 1 {
		t.Errorf("series endpoints: %v ... %v", pts[0], pts[10])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Errorf("CDF series not monotone at %d", i)
		}
	}
}

func TestPercentileAgainstUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var d Distribution
	for i := 0; i < 100000; i++ {
		d.Add(rng.Float64())
	}
	for _, p := range []float64{10, 50, 90, 99} {
		want := p / 100
		if got := d.Percentile(p); math.Abs(got-want) > 0.01 {
			t.Errorf("Percentile(%v) = %f, want ~%f", p, got, want)
		}
	}
}
