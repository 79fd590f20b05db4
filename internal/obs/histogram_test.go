package obs

import (
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := expBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	if expBuckets(0, 2, 4) != nil || expBuckets(1, 1, 4) != nil || expBuckets(1, 2, 0) != nil {
		t.Fatal("invalid parameters did not return nil")
	}
}

// TestHistogramBucketAssignment pins the boundary semantics: a sample
// equal to a bound lands in that bound's bucket (le = less-or-equal,
// matching the Prometheus convention), and overflow lands in +Inf.
func TestHistogramBucketAssignment(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{2, 2, 2, 2} // (..1], (1..2], (2..4], (4..+Inf)
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if s.Sum != 0.5+1+1.5+2+3+4+5+100 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestNilHistogramObserve(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if s := h.snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}
