// Command hgs-server serves a Historical Graph Store over HTTP/JSON.
//
// Point it at a durable store directory (created by Load/Append or a
// previous -gen run) and it exposes the full query API — snapshots as
// streamed NDJSON, node and neighborhood histories, change times,
// analytics — plus the store's telemetry (/metrics, /debug/pprof/*,
// /traces) on one port:
//
//	hgs-server -data /var/lib/hgs -addr :8080
//	hgs-server -gen 20000 -addr :8080        # in-memory synthetic store
//
// Every request runs under a deadline (?timeout=500ms, capped by
// -max-timeout) and client disconnects cancel the retrieval mid-fetch.
// Overload is shed with 429 once -max-inflight requests are executing.
// SIGINT/SIGTERM drain in-flight requests, then close the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hgs"
	"hgs/internal/server"
	"hgs/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
		data        = flag.String("data", "", "durable store directory (empty: in-memory)")
		engine      = flag.String("engine", "", "storage engine: memory, disk, tiered (default: auto)")
		machines    = flag.Int("machines", 0, "storage cluster size (new stores)")
		replication = flag.Int("replication", 0, "replicas per partition (new stores; r>=2 keeps queries alive through /admin/node/fail)")
		gen         = flag.Int("gen", 0, "load a synthetic history of this many nodes if the store is empty")
		cacheMB     = flag.Int64("cache-mb", 0, "decoded-delta cache budget in MiB (0: default, <0: off)")
		maxInflight = flag.Int("max-inflight", 64, "concurrent request limit; excess sheds 429")
		timeout     = flag.Duration("timeout", 5*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested ?timeout=")
		workers     = flag.Int("analytics-workers", 4, "TAF compute workers behind analytics endpoints")
	)
	flag.Parse()

	var cacheBytes int64
	switch {
	case *cacheMB < 0:
		cacheBytes = -1
	case *cacheMB > 0:
		cacheBytes = *cacheMB << 20
	}
	store, err := hgs.Open(hgs.Options{
		DataDir:     *data,
		Engine:      hgs.StorageEngine(*engine),
		Machines:    *machines,
		Replication: *replication,
		CacheBytes:  cacheBytes,
	})
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer store.Close()

	if !store.Loaded() {
		if *gen <= 0 {
			log.Fatalf("store at %q holds no index: load one first or pass -gen N", *data)
		}
		log.Printf("generating synthetic history (%d nodes)...", *gen)
		events := workload.Wikipedia(workload.WikiConfig{Nodes: *gen, EdgesPerNode: 4, Seed: 42})
		if err := store.Load(events); err != nil {
			log.Fatalf("load: %v", err)
		}
		log.Printf("indexed %d events", len(events))
	}

	srv := server.New(store, server.Config{
		MaxInFlight:      *maxInflight,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		AnalyticsWorkers: *workers,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	first, last, _ := store.TimeRange()
	log.Printf("serving on %s (history [%d, %d], engine %s)", bound, first, last, store.Engine())
	fmt.Printf("http://%s\n", bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}
