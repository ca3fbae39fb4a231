package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestPrecisionRecall(t *testing.T) {
	tests := []struct {
		name     string
		ref, got []string
		wantP    float64
		wantR    float64
	}{
		{"perfect", []string{"a", "b"}, []string{"a", "b"}, 1, 1},
		{"half retrieved", []string{"a", "b"}, []string{"a"}, 1, 0.5},
		{"half precise", []string{"a"}, []string{"a", "b"}, 0.5, 1},
		{"disjoint", []string{"a"}, []string{"b"}, 0, 0},
		{"both empty", nil, nil, 1, 1},
		{"empty retrieved", []string{"a"}, nil, 0, 0},
		{"empty reference", nil, []string{"a"}, 0, 0},
		{"duplicates in retrieved", []string{"a", "b"}, []string{"a", "a", "b"}, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, r := PrecisionRecall(tt.ref, tt.got)
			if math.Abs(p-tt.wantP) > 1e-9 || math.Abs(r-tt.wantR) > 1e-9 {
				t.Errorf("PrecisionRecall = (%f, %f), want (%f, %f)", p, r, tt.wantP, tt.wantR)
			}
		})
	}
}

func TestSeriesAndFigure(t *testing.T) {
	fig := NewFigure("Re-Identification Rate", "k", "rate")
	xs := fig.AddSeries("X-Search")
	peas := fig.AddSeries("PEAS")
	for k := 0; k <= 3; k++ {
		xs.Add(float64(k), 0.4/float64(k+1))
		peas.Add(float64(k), 0.45/float64(k+1))
	}
	out := fig.Render()
	for _, want := range []string{"Re-Identification Rate", "X-Search", "PEAS", "0.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2 comment lines + header + 4 data rows.
	if len(lines) != 7 {
		t.Errorf("Render produced %d lines, want 7:\n%s", len(lines), out)
	}
}

func TestFigureRenderMissingValues(t *testing.T) {
	fig := NewFigure("t", "x", "y")
	a := fig.AddSeries("a")
	b := fig.AddSeries("b")
	a.Add(1, 10)
	b.Add(2, 20)
	out := fig.Render()
	if !strings.Contains(out, "-") {
		t.Errorf("expected '-' placeholder:\n%s", out)
	}
}

func TestFormatNum(t *testing.T) {
	if formatNum(3) != "3" {
		t.Errorf("formatNum(3) = %q", formatNum(3))
	}
	if formatNum(0.5) != "0.5" {
		t.Errorf("formatNum(0.5) = %q", formatNum(0.5))
	}
}
