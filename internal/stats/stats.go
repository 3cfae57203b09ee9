// Package stats provides the small statistical accumulators and text-table
// rendering used by the simulator and the experiment harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Accumulator collects a running mean and variance without storing
// samples (Welford's algorithm).
type Accumulator struct {
	n        int
	mean, m2 float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Table renders rows of results as aligned text or CSV.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; each cell is formatted with %v. A row with fewer
// cells than headers is padded with empty cells and one with more is
// truncated, so both the aligned and the CSV rendering always line up
// with the header — a short row used to shift every following column
// silently.
func (t *Table) AddRow(cells ...any) {
	if len(t.headers) > 0 && len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	n := len(cells)
	if len(t.headers) > 0 {
		n = len(t.headers)
	}
	row := make([]string, n)
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
