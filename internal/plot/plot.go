// Package plot renders the experiment figures as self-contained SVG line
// charts using only the standard library, so the repository can regenerate
// the paper's plots (not just their data tables) without any plotting
// dependency: bpush-exp -svg <dir>.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Line is one labeled series.
type Line struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Lines  []Line
}

// palette holds distinguishable series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
}

// Every chart is width x height pixels.
const (
	width        = 720
	height       = 440
	marginLeft   = 64
	marginRight  = 160
	marginTop    = 40
	marginBottom = 48
)

// SVG renders the chart.
func (c *Chart) SVG() (string, error) {
	if len(c.Lines) == 0 {
		return "", fmt.Errorf("plot: no series")
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, l := range c.Lines {
		if len(l.X) != len(l.Y) {
			return "", fmt.Errorf("plot: series %q has %d x but %d y", l.Name, len(l.X), len(l.Y))
		}
		for i := range l.X {
			minX, maxX = math.Min(minX, l.X[i]), math.Max(maxX, l.X[i])
			minY, maxY = math.Min(minY, l.Y[i]), math.Max(maxY, l.Y[i])
			points++
		}
	}
	if points == 0 {
		return "", fmt.Errorf("plot: all series empty")
	}
	// Degenerate ranges expand symmetrically; y always starts at 0 when
	// non-negative (rates, latencies).
	if minY >= 0 {
		minY = 0
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	maxY *= 1.05 // headroom

	plotW := float64(width - marginLeft - marginRight)
	plotH := float64(height - marginTop - marginBottom)
	px := func(x float64) float64 { return float64(marginLeft) + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return float64(height-marginBottom) - (y-minY)/(maxY-minY)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="15" font-weight="bold">%s</text>`+"\n", marginLeft, escape(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, height-marginBottom, width-marginRight, height-marginBottom)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, height-marginBottom)

	// Ticks: five per axis at nice positions.
	for i := 0; i <= 4; i++ {
		fx := minX + (maxX-minX)*float64(i)/4
		fy := minY + (maxY-minY)*float64(i)/4
		x := px(fx)
		y := py(fy)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
			x, height-marginBottom, x, height-marginBottom+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n",
			x, height-marginBottom+18, ftoa(fx))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n",
			marginLeft-4, y, marginLeft, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" dominant-baseline="middle">%s</text>`+"\n",
			marginLeft-8, y, ftoa(fy))
		// Light gridline.
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eeeeee"/>`+"\n",
			marginLeft, y, width-marginRight, y)
	}
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n",
		float64(marginLeft)+plotW/2, height-8, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%.1f" text-anchor="middle" transform="rotate(-90 16 %.1f)">%s</text>`+"\n",
		float64(marginTop)+plotH/2, float64(marginTop)+plotH/2, escape(c.YLabel))

	// Series.
	for si, l := range c.Lines {
		color := palette[si%len(palette)]
		if len(l.X) > 0 {
			var pts []string
			for i := range l.X {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(l.X[i]), py(l.Y[i])))
			}
			fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="2" points="%s"/>`+"\n",
				color, strings.Join(pts, " "))
			for i := range l.X {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", px(l.X[i]), py(l.Y[i]), color)
			}
		}
		// Legend entry.
		ly := marginTop + 16*si
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			width-marginRight+12, ly, width-marginRight+32, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" dominant-baseline="middle">%s</text>`+"\n",
			width-marginRight+38, ly, escape(l.Name))
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func ftoa(f float64) string {
	switch {
	case f == math.Trunc(f) && math.Abs(f) < 1e6:
		return fmt.Sprintf("%.0f", f)
	case math.Abs(f) >= 10:
		return fmt.Sprintf("%.1f", f)
	default:
		return fmt.Sprintf("%.2f", f)
	}
}
