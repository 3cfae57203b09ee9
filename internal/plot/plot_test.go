package plot

import (
	"encoding/xml"
	"strconv"
	"strings"
	"testing"
)

func sample() *Chart {
	return &Chart{
		Title:  "Abort rate vs. ops",
		XLabel: "ops/query",
		YLabel: "abort rate",
		Lines: []Line{
			{Name: "inv-only", X: []float64{2, 10, 20}, Y: []float64{0.1, 0.5, 0.9}},
			{Name: "sgt", X: []float64{2, 10, 20}, Y: []float64{0.0, 0.2, 0.6}},
		},
	}
}

func TestSVGWellFormed(t *testing.T) {
	svg, err := sample().SVG()
	if err != nil {
		t.Fatal(err)
	}
	// Well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
	}
	for _, want := range []string{"<svg", "polyline", "Abort rate vs. ops", "inv-only", "sgt", "abort rate"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two series -> two polylines.
	if got := strings.Count(svg, "<polyline"); got != 2 {
		t.Errorf("%d polylines, want 2", got)
	}
}

func TestSVGValidation(t *testing.T) {
	c := &Chart{}
	if _, err := c.SVG(); err == nil {
		t.Error("empty chart accepted")
	}
	c = &Chart{Lines: []Line{{Name: "a", X: []float64{1}, Y: []float64{1, 2}}}}
	if _, err := c.SVG(); err == nil {
		t.Error("mismatched series lengths accepted")
	}
	c = &Chart{Lines: []Line{{Name: "a"}}}
	if _, err := c.SVG(); err == nil {
		t.Error("all-empty series accepted")
	}
}

func TestSVGDegenerateRanges(t *testing.T) {
	// Constant series and single points must not divide by zero.
	c := &Chart{
		Title: "flat",
		Lines: []Line{
			{Name: "const", X: []float64{5, 5, 5}, Y: []float64{1, 1, 1}},
			{Name: "point", X: []float64{5}, Y: []float64{1}},
		},
	}
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, "NaN") || strings.Contains(svg, "Inf") {
		t.Error("degenerate ranges produced NaN/Inf coordinates")
	}
}

func TestSVGEscapesMarkup(t *testing.T) {
	c := sample()
	c.Title = `<script>"alert"&stuff`
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, "<script>") {
		t.Error("markup not escaped")
	}
}

func TestCoordinatesWithinCanvas(t *testing.T) {
	svg, err := sample().SVG()
	if err != nil {
		t.Fatal(err)
	}
	// Crude check: every circle center within the canvas.
	for _, line := range strings.Split(svg, "\n") {
		if !strings.HasPrefix(line, "<circle") {
			continue
		}
		cx := attrFloat(t, line, "cx")
		cy := attrFloat(t, line, "cy")
		if cx < 0 || cx > 720 || cy < 0 || cy > 440 {
			t.Errorf("point (%g,%g) outside canvas", cx, cy)
		}
	}
}

// attrFloat extracts a numeric attribute value from an SVG element line.
func attrFloat(t *testing.T, line, name string) float64 {
	t.Helper()
	idx := strings.Index(line, name+`="`)
	if idx < 0 {
		t.Fatalf("attribute %q missing in %q", name, line)
	}
	rest := line[idx+len(name)+2:]
	end := strings.IndexByte(rest, '"')
	if end < 0 {
		t.Fatalf("unterminated attribute in %q", line)
	}
	v, err := strconv.ParseFloat(rest[:end], 64)
	if err != nil {
		t.Fatalf("parse %q: %v", rest[:end], err)
	}
	return v
}
