package obs

import (
	"math"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact exposition text for a registry
// with all three metric kinds, labeled and unlabeled series, and a
// histogram with samples in interior and overflow buckets — the format
// /metrics serves.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("hgs_reqs_total", "Total requests.").Add(42)
	r.Counter("hgs_reqs_total", "Total requests.", L("op", "snapshot")).Add(7)
	r.Gauge("hgs_cache_bytes", "Resident cache bytes.").Set(1024)
	r.CounterFunc("hgs_ext_total", "Sampled external counter.", func() float64 { return 3 })
	h := r.Histogram("hgs_lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, L("op", "snapshot"))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5) // overflow

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP hgs_reqs_total Total requests.
# TYPE hgs_reqs_total counter
hgs_reqs_total 42
hgs_reqs_total{op="snapshot"} 7
# HELP hgs_cache_bytes Resident cache bytes.
# TYPE hgs_cache_bytes gauge
hgs_cache_bytes 1024
# HELP hgs_ext_total Sampled external counter.
# TYPE hgs_ext_total counter
hgs_ext_total 3
# HELP hgs_lat_seconds Latency.
# TYPE hgs_lat_seconds histogram
hgs_lat_seconds_bucket{op="snapshot",le="0.001"} 1
hgs_lat_seconds_bucket{op="snapshot",le="0.01"} 1
hgs_lat_seconds_bucket{op="snapshot",le="0.1"} 3
hgs_lat_seconds_bucket{op="snapshot",le="+Inf"} 4
hgs_lat_seconds_sum{op="snapshot"} 5.1005
hgs_lat_seconds_count{op="snapshot"} 4
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "", L("path", `a"b\c`)).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {1024, "1024"}, {0.25, "0.25"}, {math.Inf(1), "+Inf"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Fatalf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
