package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): one # HELP / # TYPE header
// per family, series sorted by label signature, histograms expanded
// into cumulative _bucket series with le labels plus _sum and _count.
// A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var lastFamily string
	r.visit(func(f *family, s *series) {
		if f.name != lastFamily {
			lastFamily = f.name
			if f.help != "" {
				bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
			}
			bw.WriteString("# TYPE " + f.name + " " + f.kind.String() + "\n")
		}
		if f.kind == KindHistogram {
			writeHistogram(bw, f.name, s.sig, s.hist.snapshot())
			return
		}
		bw.WriteString(seriesKey(f.name, s.sig) + " " + formatValue(s.value()) + "\n")
	})
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets,
// sum, count.
func writeHistogram(w *bufio.Writer, name, sig string, h HistSnapshot) {
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatValue(h.Bounds[i])
		}
		lsig := `le="` + le + `"`
		if sig != "" {
			lsig = sig + "," + lsig
		}
		w.WriteString(name + "_bucket{" + lsig + "} " + strconv.FormatUint(cum, 10) + "\n")
	}
	w.WriteString(seriesKey(name+"_sum", sig) + " " + formatValue(h.Sum) + "\n")
	w.WriteString(seriesKey(name+"_count", sig) + " " + strconv.FormatUint(h.Count, 10) + "\n")
}

// seriesKey is the series part of an exposition line: the family
// name, plus the sorted label signature in braces when labeled.
func seriesKey(name, sig string) string {
	if sig == "" {
		return name
	}
	return name + "{" + sig + "}"
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
