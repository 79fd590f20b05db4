package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hgs"
	"hgs/internal/workload"
)

// BenchmarkSnapshotNDJSON serves a warm /v1/snapshot of a ~3,000-node
// store through Server.Handler into an httptest recorder: the snapshot
// retrieval plus the server's row encoding and writes, without a
// network. It uses only the package's exported surface, so the same
// file builds against older versions of the server for before/after
// runs.
func BenchmarkSnapshotNDJSON(b *testing.B) {
	store, err := hgs.Open(hgs.Options{})
	if err != nil {
		b.Fatalf("open: %v", err)
	}
	defer store.Close()
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 3000, EdgesPerNode: 3, Seed: 11})
	if err := store.Load(events); err != nil {
		b.Fatalf("load: %v", err)
	}
	_, last, err := store.TimeRange()
	if err != nil {
		b.Fatalf("time range: %v", err)
	}
	h := New(store, Config{}).Handler()
	url := "/v1/snapshot?t=" + strconv.FormatInt(int64(last), 10)
	serve := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("snapshot: status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Len()
	}
	b.SetBytes(int64(serve())) // warms the fetch cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
