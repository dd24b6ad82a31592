// Package report renders analysis results as aligned text tables, CSV and
// stable JSON, the output format of the command-line tools and the
// experiment harness (Figure 5 grids, Figure 6 curves, Table 2
// assessments), plus the Pareto-front section of design-space exploration
// reports.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table with aligned columns. It implements
// io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var total int64
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
		n, err := io.WriteString(w, b.String())
		total += int64(n)
		return err
	}
	if err := writeRow(t.header); err != nil {
		return total, err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return total, err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}

// WriteCSV renders the table as RFC-4180-ish CSV (quoting cells containing
// commas, quotes or newlines).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = csvEscape(c)
		}
		_, err := io.WriteString(w, strings.Join(parts, ",")+"\n")
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the table as a JSON array with one object per row,
// keyed by column header in declaration order (hand-encoded so the output
// is byte-stable for golden comparisons and diff-friendly across runs).
func (t *Table) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("[")
	for i, row := range t.rows {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  {")
		for j, h := range t.header {
			if j > 0 {
				b.WriteString(", ")
			}
			hb, err := json.Marshal(h)
			if err != nil {
				return err
			}
			b.Write(hb)
			b.WriteString(": ")
			vb, err := json.Marshal(row[j])
			if err != nil {
				return err
			}
			b.Write(vb)
		}
		b.WriteString("}")
	}
	if len(t.rows) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Percent formats a fraction as a percentage with adaptive precision, the
// style of the paper's Figure 5 annotations (12.2%, 0.668%).
func Percent(fraction float64) string {
	p := 100 * fraction
	switch {
	case p == 0:
		return "0%"
	case p >= 10:
		return fmt.Sprintf("%.1f%%", p)
	case p >= 0.01:
		return fmt.Sprintf("%.3g%%", p)
	default:
		return fmt.Sprintf("%.2e%%", p)
	}
}

// Rate formats a per-year rate compactly.
func Rate(r float64) string {
	if r == float64(int64(r)) && r < 1e6 {
		return fmt.Sprintf("%d", int64(r))
	}
	return fmt.Sprintf("%.4g", r)
}
