package exp

import (
	"fmt"
	"strings"
)

// Table is the one shape every figure and table of the evaluation has: a
// title, columns, rows of label and full-precision numeric cells, and named
// summary statistics printed as footer lines. Format is the only renderer;
// Value and Stat read the same numbers unrounded, so a test or a claim
// asserts on what the text shows without parsing it.
type Table struct {
	title   string
	keys    int
	cols    []column
	rows    [][]any
	summary []summaryLine
	next    *Table
}

// column is a header plus the fmt verb its numeric cells print with; an
// empty verb marks a label column (string cells).
type column struct {
	header, verb string
}

// summaryLine is one footer line: a format string and the named statistics
// it prints, in order.
type summaryLine struct {
	format string
	stats  []stat
}

type stat struct {
	name  string
	value float64
}

func line(format string, stats ...stat) summaryLine { return summaryLine{format, stats} }

// newTable checks the table's shape once, at construction: every row has one
// cell per column, a string under a label column and a float64 under a
// numeric one; the first keys columns are labels and identify each row
// uniquely (joined with "/"); statistic names are unique.
func newTable(title string, keys int, cols []column, rows [][]any, summary ...summaryLine) (Table, error) {
	t := Table{title: title, keys: keys, cols: cols, rows: rows, summary: summary}
	if keys < 1 || keys > len(cols) {
		return Table{}, fmt.Errorf("exp: %s: %d key columns of %d", title, keys, len(cols))
	}
	for _, c := range cols[:keys] {
		if c.verb != "" {
			return Table{}, fmt.Errorf("exp: %s: key column %q is numeric", title, c.header)
		}
	}
	seen := map[string]bool{}
	for i, r := range rows {
		if len(r) != len(cols) {
			return Table{}, fmt.Errorf("exp: %s: row %d has %d cells, the header has %d", title, i, len(r), len(cols))
		}
		for j, cell := range r {
			_, fits := cell.(float64)
			if cols[j].verb == "" {
				_, fits = cell.(string)
			}
			if !fits {
				return Table{}, fmt.Errorf("exp: %s: row %d, column %q holds a %T", title, i, cols[j].header, cell)
			}
		}
		key := t.rowKey(r)
		if seen[key] {
			return Table{}, fmt.Errorf("exp: %s: duplicate row %q", title, key)
		}
		seen[key] = true
	}
	names := map[string]bool{}
	for _, l := range summary {
		for _, s := range l.stats {
			if names[s.name] {
				return Table{}, fmt.Errorf("exp: %s: duplicate statistic %q", title, s.name)
			}
			names[s.name] = true
		}
	}
	return t, nil
}

func (t Table) rowKey(r []any) string {
	parts := make([]string, t.keys)
	for i := range parts {
		parts[i] = r[i].(string)
	}
	return strings.Join(parts, "/")
}

// Value returns the full-precision number in the row identified by its key
// cells (joined with "/", e.g. "LUD" or "BW/H-Xbar") under the column with
// the given header. ok is false for an unknown row, an unknown column or a
// label column.
func (t Table) Value(row, column string) (v float64, ok bool) {
	for _, r := range t.rows {
		if t.rowKey(r) != row {
			continue
		}
		for j, c := range t.cols {
			if c.header == column {
				v, ok = r[j].(float64)
				return v, ok
			}
		}
	}
	return 0, false
}

// Stat returns a named summary statistic (e.g. Figure 11's
// "hm-adaptive/private-friendly").
func (t Table) Stat(name string) (float64, bool) {
	for _, l := range t.summary {
		for _, s := range l.stats {
			if s.name == name {
				return s.value, true
			}
		}
	}
	return 0, false
}

// Format renders the title, the fixed-width table and the footer lines.
func (t Table) Format() string {
	cells := make([][]string, 0, len(t.rows)+2)
	header := make([]string, len(t.cols))
	widths := make([]int, len(t.cols))
	for j, c := range t.cols {
		header[j] = c.header
		widths[j] = len(c.header)
	}
	cells = append(cells, header, nil)
	for _, r := range t.rows {
		row := make([]string, len(r))
		for j, cell := range r {
			if s, ok := cell.(string); ok {
				row[j] = s
			} else {
				row[j] = fmt.Sprintf(t.cols[j].verb, cell)
			}
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		cells = append(cells, row)
	}
	sep := make([]string, len(widths))
	for j, w := range widths {
		sep[j] = strings.Repeat("-", w)
	}
	cells[1] = sep

	var b strings.Builder
	b.WriteString(t.title + "\n")
	for _, row := range cells {
		for j, c := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], c)
		}
		b.WriteString("\n")
	}
	for _, l := range t.summary {
		args := make([]any, len(l.stats))
		for i, s := range l.stats {
			args[i] = s.value
		}
		fmt.Fprintf(&b, l.format+"\n", args...)
	}
	if t.next != nil {
		b.WriteString("\n" + t.next.Format())
	}
	return b.String()
}
