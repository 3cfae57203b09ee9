package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.n != 0 || a.Mean() != 0 || a.Std() != 0 {
		t.Error("zero-value accumulator not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.n != 8 {
		t.Errorf("n = %d, want 8", a.n)
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", a.Mean())
	}
	// Known sample std for this classic dataset: sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(a.Std()-want) > 1e-12 {
		t.Errorf("Std = %g, want %g", a.Std(), want)
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Var() != 0 {
		t.Errorf("single sample: mean=%g var=%g", a.Mean(), a.Var())
	}
}

func TestAccumulatorMatchesNaive(t *testing.T) {
	// Welford's algorithm must agree with the two-pass formulas.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			a.Add(xs[i])
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-6 && math.Abs(a.Var()-v) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTableString(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("a-very-long-name", 22)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(out, "1.500") {
		t.Errorf("float not formatted with 3 decimals:\n%s", out)
	}
	// Columns aligned: all lines start the second column at the same
	// offset (width of the longest first cell + 2).
	width := len("a-very-long-name") + 2
	for _, l := range lines {
		if len(l) < width {
			t.Errorf("line %q shorter than column width", l)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("x", "y")
	tbl.AddRow(1, 2.25)
	csv := tbl.CSV()
	if csv != "x,y\n1,2.250\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestTableAddRowPadsShortRows(t *testing.T) {
	tbl := NewTable("a", "b", "c")
	tbl.AddRow(1, 2, 3)
	tbl.AddRow("only")
	csv := tbl.CSV()
	// A short row must still have every column, so later columns cannot
	// shift left in the CSV (or collapse in the aligned rendering).
	if csv != "a,b,c\n1,2,3\nonly,,\n" {
		t.Errorf("CSV = %q", csv)
	}
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	wantLen := len(lines[0])
	for i, l := range lines {
		if i >= 2 && len(strings.TrimRight(l, " ")) > wantLen {
			t.Errorf("row %d wider than header: %q", i, l)
		}
	}
}

func TestTableAddRowTruncatesLongRows(t *testing.T) {
	tbl := NewTable("x", "y")
	tbl.AddRow(1, 2, 3, 4)
	if csv := tbl.CSV(); csv != "x,y\n1,2\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestTableNoHeadersKeepsRowWidth(t *testing.T) {
	tbl := NewTable()
	tbl.AddRow(1, 2)
	if csv := tbl.CSV(); csv != "\n1,2\n" {
		t.Errorf("CSV = %q", csv)
	}
}
