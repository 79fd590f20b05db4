package hgs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"

	"hgs/internal/obs"
)

// Registry returns the store's metrics registry: every cluster, tier,
// cache and per-op latency counter of this store reports into it.
// Useful for registering application-level metrics next to the store's
// own; read it through its Prometheus exposition (WriteMetrics, or
// /metrics on DebugHandler).
func (s *Store) Registry() *obs.Registry { return s.obs }

// WriteMetrics writes the store's complete metric state to w in the
// Prometheus text exposition format — the same bytes DebugHandler's
// /metrics endpoint serves.
func (s *Store) WriteMetrics(w io.Writer) error { return s.obs.WritePrometheus(w) }

// DebugHandler returns the store's observability endpoints as a
// mountable http.Handler: /metrics (Prometheus text format),
// /debug/pprof/* (the Go profiler) and /traces (recent plan traces as
// JSON; populated when Options.TracePlans is on). It is the one way to
// serve a store's telemetry: cmd/hgs-server mounts it on its query
// port, and an embedder serves it with
// http.ListenAndServe(addr, store.DebugHandler()). The pprof handlers
// are registered on a private mux so an embedding process never has
// profiling forced onto http.DefaultServeMux.
func (s *Store) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.obs.WritePrometheus(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.PlanTraces())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
