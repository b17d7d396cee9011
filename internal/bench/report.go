package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Unit says what a series' numbers measure. Cells stay numbers from the
// probe to the JSON output; a unit decides only how Table.Fprint
// renders them.
type Unit string

const (
	// Millis is a duration held in milliseconds, rendered "2.13ms".
	// Series of this unit are the ones the drivers time.
	Millis Unit = "ms"
	// Bytes is a byte count, rendered "1.7MB".
	Bytes Unit = "B"
	// Hex is the leading 48 bits of a digest, rendered as 12 hex digits.
	Hex Unit = "hex"
	// Every other unit ("tx/s", "reads", "blocks", "KB", ...) is a plain
	// quantity rendered without decimals.
)

// millis converts a measured duration to a Millis cell at microsecond
// resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// format renders one cell.
func (u Unit) format(v float64) string {
	switch u {
	case Millis:
		switch {
		case v >= 100:
			return fmt.Sprintf("%.0fms", v)
		case v >= 1:
			return fmt.Sprintf("%.2fms", v)
		default:
			return fmt.Sprintf("%.3fms", v)
		}
	case Bytes:
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKB", v/(1<<10))
		default:
			return fmt.Sprintf("%.0fB", v)
		}
	case Hex:
		return fmt.Sprintf("%012x", uint64(v))
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Series is one column of a figure. In JSON, "ms" values are
// milliseconds, "B" bytes, anything else a plain count or rate in that
// unit.
type Series struct {
	Name string `json:"name"`
	Unit Unit   `json:"unit"`
}

// Row is one x-axis point of a measured figure: its label and one
// value per series.
type Row struct {
	X      string    `json:"x"`
	Values []float64 `json:"values"`
}

// Table is a measured figure: one row per x-axis point, one column per
// series, mirroring the paper's figures.
type Table struct {
	// Title identifies the experiment, e.g. "Fig. 8 — Tracking, varying
	// blockchain size".
	Title string `json:"title"`
	// X labels the x axis (the first column).
	X string `json:"x"`
	// Series names the remaining columns and their units.
	Series []Series `json:"series"`
	// Rows hold the measured values.
	Rows []Row `json:"rows"`
	// Note carries the expected shape, printed under the table.
	Note string `json:"note"`
}

// Fprint renders the table with aligned columns; this is the one place
// a cell becomes text.
func (t *Table) Fprint(w io.Writer) {
	header := []string{t.X}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	lines := [][]string{header, nil}
	for _, row := range t.Rows {
		cells := []string{row.X}
		for i, v := range row.Values {
			cells = append(cells, t.Series[i].Unit.format(v))
		}
		lines = append(lines, cells)
	}
	widths := make([]int, len(header))
	for _, cells := range lines {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	lines[1] = make([]string, len(header))
	for i := range lines[1] {
		lines[1][i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintf(w, "\n%s\n", t.Title)
	for _, cells := range lines {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	if t.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Note)
	}
}
