package bench

import (
	"encoding/json"
	"io"

	"sebdb/internal/obs"
)

// FigureJSON is one figure in machine-readable form, for plotting
// pipelines that consume `bchainbench -json`: the measured table as it
// is — series with their units, rows of numbers — under its number.
type FigureJSON struct {
	// Figure is the paper's figure number.
	Figure int `json:"figure"`
	*Table
	// Quantiles summarises the process's latency histograms as they
	// stood after this figure ran, keyed by metric name. Cumulative
	// across figures in one run (the registry is process-wide).
	Quantiles map[string]QuantilesJSON `json:"quantiles,omitempty"`
}

// QuantilesJSON is one histogram's p50/p90/p99 summary.
type QuantilesJSON struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// HistogramQuantiles snapshots every populated histogram in reg
// (Default when nil) as a p50/p90/p99 summary.
func HistogramQuantiles(reg *obs.Registry) map[string]QuantilesJSON {
	if reg == nil {
		reg = obs.Default
	}
	out := make(map[string]QuantilesJSON)
	for name, s := range reg.Histograms() {
		if s.Count == 0 {
			continue
		}
		out[name] = QuantilesJSON{
			Count: s.Count,
			P50:   s.Quantile(0.50),
			P90:   s.Quantile(0.90),
			P99:   s.Quantile(0.99),
		}
	}
	return out
}

// WriteJSON renders a list of figure results as an indented JSON
// array.
func WriteJSON(w io.Writer, figs []FigureJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(figs)
}
