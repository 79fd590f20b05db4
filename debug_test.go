package hgs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// requiredFamilies every store must expose regardless of workload — the
// contract CI's debug-endpoint smoke test asserts.
var requiredFamilies = []string{
	"hgs_kv_reads_total",
	"hgs_kv_writes_total",
	"hgs_kv_round_trips_total",
	"hgs_kv_simwait_seconds_total",
	"hgs_kv_stored_bytes",
	"hgs_kv_machines",
	"hgs_cache_hits_total",
	"hgs_cache_misses_total",
	"hgs_cache_negative_hits_total",
	"hgs_cache_bytes",
	"hgs_op_duration_seconds",
	"hgs_op_simwait_seconds",
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestDebugHandlerEndpoints serves a store's DebugHandler, runs a small
// workload, and asserts /metrics serves every required family with the
// per-op histograms populated, /traces serves the plan-trace ring as
// JSON, and /debug/pprof/ answers.
func TestDebugHandlerEndpoints(t *testing.T) {
	opts := smallOptions()
	opts.TracePlans = true
	store, _ := loadWiki(t, opts, 120)
	defer store.Close()
	srv := httptest.NewServer(store.DebugHandler())
	defer srv.Close()

	if _, err := store.Snapshot(1_000); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, fam := range requiredFamilies {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	if !strings.Contains(body, `hgs_op_duration_seconds_count{op="snapshot"}`) {
		t.Error("/metrics missing populated snapshot duration histogram")
	}
	if !strings.Contains(body, `hgs_op_duration_seconds_count{op="build"}`) {
		t.Error("/metrics missing populated build duration histogram")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want Prometheus text format 0.0.4", ct)
	}

	code, body = httpGet(t, srv.URL+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status = %d", code)
	}
	var recs []TraceRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/traces not JSON trace records: %v", err)
	}
	if len(recs) == 0 || recs[len(recs)-1].Op != "snapshot" {
		t.Fatalf("/traces = %d records, want trailing snapshot trace", len(recs))
	}

	code, _ = httpGet(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

// TestProfileEndpointSmoke — skipped with -short — captures a 1-second
// CPU profile from a served DebugHandler while a query workload runs:
// the serving-side counterpart of `make profile` (which writes
// cpu.prof/alloc.prof offline over the same bench workload).
func TestProfileEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling smoke test skipped in -short runs")
	}
	store, events := loadWiki(t, smallOptions(), 120)
	defer store.Close()
	srv := httptest.NewServer(store.DebugHandler())
	defer srv.Close()

	stop := make(chan struct{})
	go func() {
		last := events[len(events)-1].Time
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := store.Snapshot(Time(int64(i%10)+1) * last / 10); err != nil {
				return
			}
		}
	}()
	defer close(stop)

	code, body := httpGet(t, srv.URL+"/debug/pprof/profile?seconds=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/profile status = %d", code)
	}
	if len(body) == 0 {
		t.Fatal("empty CPU profile")
	}
}

// metricValues reads the store's metrics through WriteMetrics into a
// map from series (name plus braced labels) to value.
func metricValues(t *testing.T, store *Store) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := store.WriteMetrics(&b); err != nil {
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
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestWriteMetricsOffline asserts the programmatic exposition path —
// what hgs-inspect -metrics uses — carries the served families, the
// cluster's read count, and exactly one snapshot observation per
// snapshot call.
func TestWriteMetricsOffline(t *testing.T) {
	store, _ := loadWiki(t, smallOptions(), 60)
	defer store.Close()

	const snapshots = `hgs_op_duration_seconds_count{op="snapshot"}`
	before := metricValues(t, store)[snapshots]
	if _, err := store.Snapshot(500); err != nil {
		t.Fatal(err)
	}
	after := metricValues(t, store)
	if got := after[snapshots] - before; got != 1 {
		t.Fatalf("snapshot op histogram grew by %v, want exactly 1 observation", got)
	}
	if got, want := after["hgs_kv_reads_total"], float64(store.Cluster().Metrics().Reads); got != want {
		t.Errorf("hgs_kv_reads_total = %v, want %v", got, want)
	}

	var b strings.Builder
	if err := store.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range requiredFamilies {
		if !strings.Contains(b.String(), "# TYPE "+fam+" ") {
			t.Errorf("WriteMetrics missing family %s", fam)
		}
	}
}
