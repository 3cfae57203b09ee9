package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesFullRun ties the numbers EXPERIMENTS.md quotes
// to the committed full run they come from: the Figure 5 (left) table and
// the accept-rate and size-increase rows of Table 1 must equal
// plots/experiments_full_output.txt at the precision the doc prints them
// (".035" is 0.035, "1.00" is 1.000, "0" is 0.000). An edit on either
// side that the other does not follow fails here.
func TestExperimentsDocMatchesFullRun(t *testing.T) {
	doc := readLines(t, filepath.Join("..", "..", "EXPERIMENTS.md"))
	run := readLines(t, filepath.Join("..", "..", "plots", "experiments_full_output.txt"))

	// Figure 5 (left): the doc abbreviates the cached invalidation
	// columns; rows are keyed by ops per query.
	docCols, docRows := markdownTable(t, section(t, doc, "## Figure 5 (left)"))
	runCols, runRows := textTable(t, section(t, run, "== fig5-left:"))
	docName := map[string]string{"inv+cache": "inv-only+cache", "inv+vcache": "inv-only+vcache"}
	runRowByOps := map[string][]string{}
	for _, r := range runRows {
		ops, err := strconv.ParseFloat(r[0], 64)
		if err != nil {
			t.Fatalf("fig5-left row %q: %v", r, err)
		}
		runRowByOps[strconv.FormatFloat(ops, 'f', -1, 64)] = r
	}
	if len(docRows) == 0 {
		t.Fatal("EXPERIMENTS.md: Figure 5 (left) table has no rows")
	}
	for _, r := range docRows {
		want, ok := runRowByOps[r[0]]
		if !ok {
			t.Errorf("Figure 5 (left): ops %s is not in the full run", r[0])
			continue
		}
		for i := 1; i < len(docCols); i++ {
			name := docCols[i]
			if full, ok := docName[name]; ok {
				name = full
			}
			j := slices.Index(runCols, name)
			if j < 0 {
				t.Fatalf("Figure 5 (left): column %q is not in the full run (%v)", docCols[i], runCols)
			}
			checkQuoted(t, "Figure 5 (left) ops "+r[0]+" "+docCols[i], r[i], want[j])
		}
	}

	// Table 1: the doc's cells carry a verdict after the number.
	docCols, docRows = markdownTable(t, section(t, doc, "## Table 1"))
	runCols, runRows = textTable(t, section(t, run, "== table1:"))
	for _, label := range []struct{ doc, run string }{
		{"concurrency (accept)", "concurrency (accept rate)"},
		{"size increase", "size increase (U=50, span 3)"},
	} {
		d, r := rowByLabel(docRows, label.doc), rowByLabel(runRows, label.run)
		if d == nil || r == nil {
			t.Fatalf("Table 1 row %q: doc row %v, full-run row %v", label.doc, d, r)
		}
		for i := 1; i < len(docCols); i++ {
			j := slices.Index(runCols, docCols[i])
			if j < 0 {
				t.Fatalf("Table 1: column %q is not in the full run (%v)", docCols[i], runCols)
			}
			quoted := strings.Fields(d[i])[0]
			checkQuoted(t, "Table 1 "+label.doc+" "+docCols[i], strings.TrimSuffix(quoted, "%"), strings.TrimSuffix(r[j], "%"))
		}
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// section returns the lines after the first one starting with heading.
func section(t *testing.T, lines []string, heading string) []string {
	t.Helper()
	for i, l := range lines {
		if strings.HasPrefix(l, heading) {
			return lines[i+1:]
		}
	}
	t.Fatalf("no section %q", heading)
	return nil
}

// markdownTable parses the first pipe table in lines: its header cells and
// its body rows, cells trimmed.
func markdownTable(t *testing.T, lines []string) (header []string, rows [][]string) {
	t.Helper()
	cells := func(l string) []string {
		parts := strings.Split(strings.Trim(strings.TrimSpace(l), "|"), "|")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, "|") {
			if header != nil {
				break
			}
			continue
		}
		switch {
		case header == nil:
			header = cells(l)
		case i > 0 && strings.HasPrefix(lines[i-1], "|") && strings.Contains(l, "---"):
		default:
			rows = append(rows, cells(l))
		}
	}
	if header == nil {
		t.Fatal("no markdown table")
	}
	return header, rows
}

var wideGap = regexp.MustCompile(`\s{2,}`)

// textTable parses a bpush-exp table: a header line, a dashed rule, then
// rows up to the first blank line. Columns are separated by two or more
// spaces, so a label may contain single spaces.
func textTable(t *testing.T, lines []string) (header []string, rows [][]string) {
	t.Helper()
	split := func(l string) []string { return wideGap.Split(strings.TrimSpace(l), -1) }
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("no text table at %q", lines[:min(2, len(lines))])
	}
	header = split(lines[0])
	for _, l := range lines[2:] {
		if strings.TrimSpace(l) == "" {
			break
		}
		rows = append(rows, split(l))
	}
	return header, rows
}

func rowByLabel(rows [][]string, label string) []string {
	for _, r := range rows {
		if r[0] == label {
			return r
		}
	}
	return nil
}

// checkQuoted reports whether the full-run value, rounded to the number of
// decimals the doc quotes, reads as the quoted value.
func checkQuoted(t *testing.T, what, quoted, full string) {
	t.Helper()
	q, err := strconv.ParseFloat(quoted, 64)
	if err != nil {
		t.Errorf("%s: doc value %q: %v", what, quoted, err)
		return
	}
	f, err := strconv.ParseFloat(full, 64)
	if err != nil {
		t.Errorf("%s: full-run value %q: %v", what, full, err)
		return
	}
	decimals := 0
	if _, frac, ok := strings.Cut(quoted, "."); ok {
		decimals = len(frac)
	}
	if got, want := strconv.FormatFloat(f, 'f', decimals, 64), strconv.FormatFloat(q, 'f', decimals, 64); got != want {
		t.Errorf("%s: EXPERIMENTS.md says %s, the full run says %s", what, quoted, full)
	}
}
