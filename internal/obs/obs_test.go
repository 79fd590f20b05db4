package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := exposition(t, r)["reqs_total"]; got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	g := r.Gauge("level", "a level")
	g.Add(10)
	g.Add(-4)
	if got := exposition(t, r)["level"]; got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
	// Same name+labels returns the same series.
	r.Counter("reqs_total", "requests").Inc()
	if got := exposition(t, r)["reqs_total"]; got != 6 {
		t.Fatalf("re-lookup did not return the existing counter: %v, want 6", got)
	}
	// Distinct labels are distinct series.
	r.Counter("reqs_total", "requests", L("op", "a")).Add(7)
	if s := exposition(t, r); s["reqs_total"] != 6 || s[`reqs_total{op="a"}`] != 7 {
		t.Fatalf("labeled series aliased the unlabeled one: %v", s)
	}
}

// exposition reads r through WritePrometheus into a map from series
// (the text before the value: name plus braced labels) to value.
func exposition(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestFuncBackedMetricsSampledAtSnapshot: a func-backed series reads
// its sampler's value at exposition time, not at registration.
func TestFuncBackedMetricsSampledAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.CounterFunc("ext_total", "external", func() float64 { return v })
	r.GaugeFunc("ext_level", "external level", func() float64 { return 2 * v })
	s1 := exposition(t, r)
	v = 10
	s2 := exposition(t, r)
	if got := s1["ext_total"]; got != 3 {
		t.Fatalf("first sample = %v, want 3", got)
	}
	if got := s2["ext_total"]; got != 10 {
		t.Fatalf("second sample = %v, want 10", got)
	}
	if got := s2["ext_level"]; got != 20 {
		t.Fatalf("gauge sample = %v, want 20", got)
	}
	// Re-registering replaces the sampler.
	r.CounterFunc("ext_total", "external", func() float64 { return 99 })
	if got := exposition(t, r)["ext_total"]; got != 99 {
		t.Fatalf("replaced sampler reads %v, want 99", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Add(1)
	r.Histogram("c", "", nil).Observe(1)
	r.CounterFunc("d", "", func() float64 { return 1 })
	r.GaugeFunc("e", "", func() float64 { return 1 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q, want nothing", b.String())
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter family did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestSnapshotDiffUnderConcurrency reads the registry's exposition
// while counters and histograms are hammered from many goroutines — the
// -race half of the registry contract. The difference between a reading
// before and one after the quiesced writers must account for every
// recorded event exactly.
func TestSnapshotDiffUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	h := r.Histogram("lat", "latency", nil, L("op", "x"))
	c.Add(5)
	h.Observe(0.5)
	base := exposition(t, r)

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var nw nullWriter
				r.WritePrometheus(&nw)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	end := exposition(t, r)
	if got := end["ops_total"] - base["ops_total"]; got != workers*per {
		t.Fatalf("counter diff = %v, want %d", got, workers*per)
	}
	count := `lat_count{op="x"}`
	if got := end[count] - base[count]; got != workers*per {
		t.Fatalf("histogram count diff = %v, want %d", got, workers*per)
	}
	// Buckets are cumulative: the +Inf bucket holds every sample.
	if all := end[`lat_bucket{op="x",le="+Inf"}`]; all != end[count] {
		t.Fatalf("+Inf bucket %v != count %v", all, end[count])
	}
}
