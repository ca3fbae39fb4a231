package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Series is a named sequence of points, one plotted line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure is a collection of series plus axis labels — the data behind one
// of the paper's plots, renderable as an aligned text table (our substitute
// for gnuplot output).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates a figure with the given labels.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends a new named series and returns it.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render produces an aligned table with one row per distinct X across all
// series and one column per series. Missing values render as "-".
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	fmt.Fprintf(&b, "# x=%s  y=%s\n", f.XLabel, f.YLabel)

	xsSet := map[float64]struct{}{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xsSet[p.X] = struct{}{}
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = formatNum(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatNum(v float64) string {
	if v == float64(int64(v)) && v < 1e9 && v > -1e9 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
