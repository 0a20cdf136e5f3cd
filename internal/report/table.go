// Package report renders the reproduction's tables and figures as
// plain text (aligned tables, horizontal ASCII bar charts) and CSV, for
// the cmd tools and EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of string cells and renders them with aligned
// columns.
type Table struct {
	// Title is printed above the table when non-empty.
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
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
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	// Render to a strings.Builder never fails.
	_ = t.Render(&b)
	return b.String()
}

// CSV writes the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) CSV(w io.Writer) error {
	writeRec := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRec(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRec(row); err != nil {
			return err
		}
	}
	return nil
}
