package taf

import (
	"sort"

	"hgs/internal/temporal"
)

// Timed is one sampled value of a quantity at a timepoint.
type Timed[V any] struct {
	Time  temporal.Time
	Value V
}

// Series is a chronological scalar timeseries — the operand of the
// paper's TempAggregation operators (Peak, Saturate, Max, Min, Mean).
type Series []Timed[float64]

// Sort orders the series chronologically in place and returns it.
func (s Series) Sort() Series {
	sort.Slice(s, func(i, j int) bool { return s[i].Time < s[j].Time })
	return s
}

// Max returns the sample with the largest value (earliest on ties).
func (s Series) Max() (Timed[float64], bool) {
	if len(s) == 0 {
		return Timed[float64]{}, false
	}
	best := s[0]
	for _, v := range s[1:] {
		if v.Value > best.Value {
			best = v
		}
	}
	return best, true
}

// Min returns the sample with the smallest value (earliest on ties).
func (s Series) Min() (Timed[float64], bool) {
	if len(s) == 0 {
		return Timed[float64]{}, false
	}
	best := s[0]
	for _, v := range s[1:] {
		if v.Value < best.Value {
			best = v
		}
	}
	return best, true
}

// Mean returns the arithmetic mean of the sampled values.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v.Value
	}
	return sum / float64(len(s))
}

// Peaks returns the local maxima — "times at which there was a peak in
// the quantity" (paper §5.1, TempAggregation). Plateau peaks report
// their first sample.
func (s Series) Peaks() []Timed[float64] {
	var out []Timed[float64]
	for i := range s {
		leftOK := i == 0 || s[i].Value > s[i-1].Value
		rightOK := true
		for j := i + 1; j < len(s); j++ {
			if s[j].Value == s[i].Value {
				continue // plateau extends right
			}
			rightOK = s[j].Value < s[i].Value
			break
		}
		if i > 0 && s[i].Value == s[i-1].Value {
			leftOK = false // not the first sample of the plateau
		}
		if leftOK && rightOK {
			out = append(out, s[i])
		}
	}
	return out
}

// Saturate returns the earliest time from which the value stays within
// eps of the final value — when the quantity stops changing materially.
func (s Series) Saturate(eps float64) (temporal.Time, bool) {
	if len(s) == 0 {
		return 0, false
	}
	final := s[len(s)-1].Value
	sat := s[len(s)-1].Time
	for i := len(s) - 1; i >= 0; i-- {
		d := s[i].Value - final
		if d < 0 {
			d = -d
		}
		if d > eps {
			break
		}
		sat = s[i].Time
	}
	return sat, true
}

// EvenTimepoints returns n timepoints evenly spaced over iv (inclusive
// of both ends), the default sampler of the Evolution operator.
func EvenTimepoints(iv temporal.Interval, n int) []temporal.Time {
	if n <= 1 {
		return []temporal.Time{iv.Start}
	}
	out := make([]temporal.Time, n)
	// An empty interval (a non-overlapping Timeslice) samples its start.
	span := max(iv.End-1-iv.Start, 0)
	for i := 0; i < n; i++ {
		out[i] = iv.Start + temporal.Time(int64(span)*int64(i)/int64(n-1))
	}
	return out
}
