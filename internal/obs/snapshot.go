package obs

import "sort"

// seriesKey is the flat identity of one series inside a Snapshot:
// the family name, plus the sorted label signature in braces when
// labeled — exactly the series part of its exposition line.
func seriesKey(name, sig string) string {
	if sig == "" {
		return name
	}
	return name + "{" + sig + "}"
}

// Snapshot is a point-in-time copy of every registered metric:
// scalars (counters and gauges, func-backed ones sampled) and
// histogram states. Snapshots are plain values — safe to keep, diff
// and read concurrently — and are how a caller turns the live registry
// into the delta of one piece of work.
type Snapshot struct {
	// Values maps series keys (see Value) to counter/gauge readings.
	Values map[string]float64
	// Hists maps series keys to histogram states.
	Hists map[string]HistSnapshot
}

// Snapshot captures the current state of every metric. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{Values: make(map[string]float64), Hists: make(map[string]HistSnapshot)}
	r.visit(func(f *family, s *series) {
		key := seriesKey(f.name, s.sig)
		if f.kind == KindHistogram {
			out.Hists[key] = s.hist.snapshot()
			return
		}
		out.Values[key] = s.value()
	})
	return out
}

// Diff returns s - prev: every scalar subtracted (series missing from
// prev diff against zero) and every histogram reduced to the samples
// observed between the snapshots. Gauges subtract like counters; read
// level gauges from s directly instead.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Values: make(map[string]float64, len(s.Values)),
		Hists:  make(map[string]HistSnapshot, len(s.Hists)),
	}
	for k, v := range s.Values {
		out.Values[k] = v - prev.Values[k]
	}
	for k, h := range s.Hists {
		out.Hists[k] = h.Sub(prev.Hists[k])
	}
	return out
}

// Value returns the scalar reading of name+labels (0 when absent).
func (s Snapshot) Value(name string, labels ...Label) float64 {
	return s.Values[seriesKey(name, signature(labels))]
}

// Hist returns the histogram state of name+labels and whether the
// series exists.
func (s Snapshot) Hist(name string, labels ...Label) (HistSnapshot, bool) {
	h, ok := s.Hists[seriesKey(name, signature(labels))]
	return h, ok
}

// Keys returns every series key of the snapshot, sorted — scalars
// first, then histograms.
func (s Snapshot) Keys() []string {
	out := make([]string, 0, len(s.Values)+len(s.Hists))
	for k := range s.Values {
		out = append(out, k)
	}
	sort.Strings(out)
	hs := make([]string, 0, len(s.Hists))
	for k := range s.Hists {
		hs = append(hs, k)
	}
	sort.Strings(hs)
	return append(out, hs...)
}
