// Command hgs-inspect builds a Historical Graph Store over a synthetic
// dataset and reports index statistics and a few probe queries — a quick
// way to see what the TGI stores and how retrieval behaves.
//
// Usage:
//
//	hgs-inspect -dataset wiki -nodes 10000
//	hgs-inspect -dataset friendster -nodes 8000 -locality
//
// With -data the store runs on a durable disk backend: the first run
// builds and persists the index, subsequent runs reattach to it and
// answer the probe queries without rebuilding:
//
//	hgs-inspect -dataset wiki -nodes 10000 -data /tmp/hgs-wiki
//	hgs-inspect -data /tmp/hgs-wiki   # instant: reuses the index
//
// -engine selects the storage engine behind -data (disk, or tiered for
// the disk engine with a -hot-bytes memory budget for the values of the
// newest rows; the engine is persisted, reattaching adopts it), and
// -backup copies the quiesced store into a fresh directory that opens
// like the original:
//
//	hgs-inspect -dataset wiki -data /tmp/hgs-wiki -engine tiered
//	hgs-inspect -data /tmp/hgs-wiki -backup /tmp/hgs-wiki.bak
//	hgs-inspect -data /tmp/hgs-wiki.bak   # the backup is a store
//
// Reattaching to a tiered store refills its memory budget from the log
// replay that rebuilds the index, so the newest rows are served from
// memory at once.
//
// -trace records a plan trace for every probe query and prints each
// retrieval's planned key set and its per-table cache-hit /
// negative-hit / KV-read breakdown, with exact round-trip and
// simulated-wait attribution:
//
//	hgs-inspect -dataset wiki -nodes 10000 -trace
//
// -topology appends the placement state — per-node virtual-node
// count, key share, stored bytes, pending hinted writes, and any
// under-replicated partitions — for the freshly built or reattached
// store:
//
//	hgs-inspect -data /tmp/hgs-wiki -topology
//
// -metrics replaces the human report with the store's complete metric
// state in the Prometheus text exposition format — the same bytes
// Store.DebugHandler serves on /metrics — after running the usual
// probe queries so the per-op latency histograms are populated. Build
// progress goes to stderr, so stdout is a clean scrape:
//
//	hgs-inspect -data /tmp/hgs-wiki -metrics > metrics.prom
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"hgs"
	"hgs/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "wiki", "dataset: wiki | friendster | dblp")
	nodes := flag.Int("nodes", 10_000, "approximate node count")
	machines := flag.Int("machines", 4, "storage machines (m)")
	replication := flag.Int("replication", 1, "replication factor (r)")
	locality := flag.Bool("locality", false, "use locality micro-partitioning")
	replicate := flag.Bool("replicate-1hop", false, "store 1-hop replication aux deltas")
	compress := flag.Bool("compress", false, "gzip-compress stored blobs")
	dataDir := flag.String("data", "", "durable data directory (disk backend); reattaches when it already holds an index")
	engine := flag.String("engine", "", "storage engine for -data: disk | tiered (default: disk, or whatever the directory was created with)")
	hotBytes := flag.Int64("hot-bytes", 0, "tiered engine: per-node memory copy budget in bytes (default 32 MiB)")
	backup := flag.String("backup", "", "after inspecting, copy the quiesced store into this fresh directory")
	trace := flag.Bool("trace", false, "record per-query plan traces and print each probe's plan/cache/KV breakdown")
	metrics := flag.Bool("metrics", false, "dump the store's metrics in Prometheus text format on stdout instead of the human report")
	topology := flag.Bool("topology", false, "print the placement topology: per-node vnode count, key share, stored bytes, under-replicated partitions")
	flag.Parse()

	// With -metrics the human report is silenced and stdout carries only
	// the exposition; progress lines move to stderr.
	report := io.Writer(os.Stdout)
	banner := io.Writer(os.Stdout)
	if *metrics {
		report = io.Discard
		banner = os.Stderr
	}

	// With a populated -data directory the shape and index parameters
	// come from disk, so open first and only synthesize events when a
	// build is actually needed.
	opts := hgs.Options{
		LocalityPartitioning: *locality,
		Replicate1Hop:        *replicate,
		Compress:             *compress,
		DataDir:              *dataDir,
		Engine:               hgs.StorageEngine(*engine),
		HotBytes:             *hotBytes,
		TracePlans:           *trace,
	}
	if *dataDir != "" {
		if _, err := os.Stat(filepath.Join(*dataDir, "cluster.json")); err == nil {
			// Shape and engine flags the user actually typed must still
			// be checked against the persisted values; untyped ones
			// adopt them.
			explicit := map[string]bool{}
			flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
			probeOpts := hgs.Options{
				DataDir:    *dataDir,
				HotBytes:   *hotBytes,
				TracePlans: *trace,
			}
			if explicit["machines"] {
				probeOpts.Machines = *machines
			}
			if explicit["replication"] {
				probeOpts.Replication = *replication
			}
			if explicit["engine"] {
				probeOpts.Engine = hgs.StorageEngine(*engine)
			}
			probe, err := hgs.Open(probeOpts)
			if err != nil {
				log.Fatal(err)
			}
			if !probe.Loaded() {
				probe.Close()
				log.Fatalf("hgs-inspect: %s holds a store but no index (interrupted build?); delete it and rerun", *dataDir)
			}
			fmt.Fprintf(banner, "reattached to existing index in %s (engine %s; no rebuild; dataset/index flags come from the store)\n",
				*dataDir, probe.Engine())
			inspect(probe, report)
			dumpTopology(probe, *topology, os.Stdout)
			dumpMetrics(probe, *metrics)
			runBackup(probe, *backup)
			if err := probe.Close(); err != nil {
				log.Fatal(err)
			}
			return
		}
	}

	var events []hgs.Event
	switch *dataset {
	case "wiki":
		events = workload.Wikipedia(workload.WikiConfig{Nodes: *nodes, EdgesPerNode: 4, Seed: 1})
	case "friendster":
		size := 200
		events = workload.Friendster(workload.FriendsterConfig{
			Communities: max(*nodes/size, 1), CommunitySize: size,
			IntraDegree: 8, InterFraction: 0.05, Seed: 1,
		})
	case "dblp":
		events = workload.DBLP(workload.DBLPConfig{
			Authors: *nodes / 3, Papers: 2 * *nodes / 3,
			AuthorsPerPaper: 3, AttrChurn: *nodes / 2, Seed: 1,
		})
	default:
		fmt.Fprintf(os.Stderr, "hgs-inspect: unknown dataset %q\n", *dataset)
		os.Exit(1)
	}

	opts.Machines = *machines
	opts.Replication = *replication
	opts.TimespanEvents = max(len(events)/2, 1)
	opts.EventlistSize = max(len(events)/16, 1)
	store, err := hgs.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(banner, "building TGI over %d events (m=%d, r=%d, locality=%v, durable=%v, engine=%s)...\n",
		len(events), *machines, *replication, *locality, store.Durable(), store.Engine())
	if err := store.Load(events); err != nil {
		log.Fatal(err)
	}
	inspect(store, report)
	dumpTopology(store, *topology, os.Stdout)
	dumpMetrics(store, *metrics)
	runBackup(store, *backup)
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
}

// runBackup copies the quiesced store into dir when -backup is set.
func runBackup(store *hgs.Store, dir string) {
	if dir == "" {
		return
	}
	if err := store.Backup(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backup    : copied store into %s (open it with -data %s)\n", dir, dir)
}

// dumpTopology prints the placement state when -topology is set: one
// line per storage node (vnode count, key share, stored bytes, pending
// hints) plus the partition totals. Works on a freshly built store and
// on a reattached -data directory alike.
func dumpTopology(store *hgs.Store, enabled bool, out io.Writer) {
	if !enabled {
		return
	}
	info, err := store.Topology()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "topology  : %d nodes, r=%d, %d vnodes/node, %d partitions",
		len(info.Nodes), info.Replication, info.VirtualNodes, info.Partitions)
	if info.Rebalancing {
		fmt.Fprint(out, " (rebalancing)")
	}
	fmt.Fprintln(out)
	for _, n := range info.Nodes {
		state := "up"
		if n.Down {
			state = "DOWN"
		}
		fmt.Fprintf(out, "  node %-4d: %3d vnodes  %5.1f%% key share  %8d KB stored  %s",
			n.ID, n.VirtualNodes, 100*n.KeyShare, n.StoredBytes/1024, state)
		if n.PendingHints > 0 {
			fmt.Fprintf(out, "  (%d hinted writes pending)", n.PendingHints)
		}
		fmt.Fprintln(out)
	}
	if info.UnderReplicated > 0 {
		fmt.Fprintf(out, "  UNDER-REPLICATED: %d of %d partitions below r=%d\n",
			info.UnderReplicated, info.Partitions, info.Replication)
	}
}

// dumpMetrics writes the Prometheus exposition to stdout when -metrics
// is set (inspect already ran the probe queries, so the per-op latency
// histograms report real retrievals).
func dumpMetrics(store *hgs.Store, enabled bool) {
	if !enabled {
		return
	}
	if err := store.WriteMetrics(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// inspect runs index statistics and a few probe queries, reporting to
// out (io.Discard in -metrics mode: the queries still run and populate
// the metric registry, only the prose is suppressed).
func inspect(store *hgs.Store, out io.Writer) {

	st, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	lo, hi, _ := store.TimeRange()
	fmt.Fprintf(out, "indexed   : %d events over [%d, %d] in %d timespans\n", st.Events, lo, hi, st.Timespans)
	fmt.Fprintf(out, "storage   : %d bytes logical (%d physical)\n", st.LogicalBytes, st.StoredBytes)
	fmt.Fprintf(out, "writes    : %d rows, %d bytes\n", st.StoreMetrics.Writes, st.StoreMetrics.BytesWritten)

	mid := (lo + hi) / 2
	for _, tt := range []hgs.Time{lo + (hi-lo)/4, mid, hi} {
		store.Cluster().ResetMetrics()
		g, err := store.Snapshot(tt)
		if err != nil {
			log.Fatal(err)
		}
		m := store.Cluster().Metrics()
		fmt.Fprintf(out, "snapshot@%-12d: %6d nodes %7d edges  (%d reads, %d round-trips, %d KB)\n",
			tt, g.NumNodes(), g.NumEdges(), m.Reads, m.RoundTrips, m.BytesRead/1024)
	}

	g, _ := store.Snapshot(hi)
	top := g.DegreeCentralityTop(3)
	for _, id := range top {
		store.Cluster().ResetMetrics()
		h, err := store.NodeHistory(id, lo, hi+1)
		if err != nil {
			log.Fatal(err)
		}
		m := store.Cluster().Metrics()
		fmt.Fprintf(out, "history node %-10d: %4d changes, %d versions  (%d reads, %d round-trips, %d KB)\n",
			id, len(h.Events), len(h.Versions()), m.Reads, m.RoundTrips, m.BytesRead/1024)
	}

	// A second pass over the same snapshots shows the decoded-delta
	// cache at work: warm queries mostly skip the store.
	store.Cluster().ResetMetrics()
	for _, tt := range []hgs.Time{lo + (hi-lo)/4, mid, hi} {
		if _, err := store.Snapshot(tt); err != nil {
			log.Fatal(err)
		}
	}
	m := store.Cluster().Metrics()
	st, err = store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "warm rerun: 3 snapshots in %d reads, %d round-trips; %s\n",
		m.Reads, m.RoundTrips, st.Cache)

	// Disk stores also report the memory/disk split of their reads, the
	// bytes written to disk and the log compactions since open.
	if tm := st.StoreMetrics; tm.TierHotReads > 0 || tm.TierColdReads > 0 {
		fmt.Fprintf(out, "tiers     : %d hot reads, %d cold reads, %d KB hot resident, %d KB written through, %d compactions\n",
			tm.TierHotReads, tm.TierColdReads, tm.TierHotBytes/1024, tm.FlushedBytes/1024, tm.Compactions)
	}

	// With -trace, every probe query above left a plan trace: print the
	// per-query plan/cache/KV breakdown, oldest first.
	if traces := store.PlanTraces(); len(traces) > 0 {
		fmt.Fprintln(out, "plan traces (oldest first):")
		for _, tr := range traces {
			fmt.Fprintln(out, " ", tr)
		}
	}
}
