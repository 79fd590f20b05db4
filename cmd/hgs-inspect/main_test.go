package main

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"hgs"
	"hgs/internal/workload"
)

// TestInspectMetricsCountEverything runs inspect's probes over a small
// store and reads the KV counters back through the exposition: they
// must count the build and the probes, and agree with the store's own
// metrics. Working out a probe's cost must not wind them back.
func TestInspectMetricsCountEverything(t *testing.T) {
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 200, EdgesPerNode: 3, Seed: 1})
	store, err := hgs.Open(hgs.Options{TimespanEvents: len(events) / 2, EventlistSize: len(events) / 16})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	inspect(store, io.Discard, false)

	var b strings.Builder
	if err := store.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	exposed := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			exposed[name] = v
		}
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"hgs_kv_reads_total":         st.StoreMetrics.Reads,
		"hgs_kv_writes_total":        st.StoreMetrics.Writes,
		"hgs_kv_written_bytes_total": st.StoreMetrics.BytesWritten,
	} {
		got, ok := exposed[name]
		if !ok {
			t.Fatalf("exposition has no %s", name)
		}
		if got <= 0 || got != float64(want) {
			t.Errorf("%s = %v, want > 0 and equal to Stats().StoreMetrics (%d)", name, got, want)
		}
	}
}
