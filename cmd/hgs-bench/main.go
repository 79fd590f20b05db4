// Command hgs-bench regenerates the paper's evaluation tables and
// figures (Khurana & Deshpande, EDBT 2016, §6) on the scaled synthetic
// datasets and prints the plotted series.
//
// Usage:
//
//	hgs-bench                 # run everything
//	hgs-bench -list           # list experiment ids
//	hgs-bench -run fig11      # run one experiment
//	HGS_SCALE=4 hgs-bench     # scale all datasets 4x
//	hgs-bench -run fig11 -data /tmp/bench-disk   # same workload on the
//	                          # durable disk backend (memory vs disk)
//
// Every figure run reports its store metrics (logical KV operations,
// machine round-trips, simulated service time) and the decoded-delta
// cache counters as notes, so its counters are checkable from the CLI
// output alone. The figures run under the simulated latency model;
// real-cost performance is measured by `bash benchmark/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hgs/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "", "comma-free experiment id to run (default: all)")
	dataDir := flag.String("data", "", "run storage clusters on the durable disk backend under this (fresh) directory, to compare memory vs disk")
	flag.Parse()

	if *list {
		for _, id := range bench.Order {
			fmt.Println(id)
		}
		return
	}

	ids := bench.Order
	if *run != "" {
		if _, ok := bench.Runners[*run]; !ok {
			fmt.Fprintf(os.Stderr, "hgs-bench: unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		ids = []string{*run}
	}

	if *dataDir != "" {
		if entries, err := os.ReadDir(*dataDir); err == nil && len(entries) > 0 {
			fmt.Fprintf(os.Stderr, "hgs-bench: -data %s is not empty; benchmarks need a fresh directory\n", *dataDir)
			os.Exit(1)
		}
		bench.SetDataDir(*dataDir)
		defer bench.ResetCache() // close disk engines before exit
	}

	sc := bench.DefaultScale()
	fmt.Printf("# HGS evaluation harness — scale: %d wiki nodes, %d friendster nodes, %d dblp entities\n",
		sc.WikiNodes, sc.FriendsterCommunities*sc.FriendsterSize, sc.DBLPAuthors+sc.DBLPPapers)
	fmt.Printf("# started %s\n\n", time.Now().Format(time.RFC3339))

	// Stream results as each experiment completes.
	for _, id := range ids {
		bench.Runners[id](sc).Print(os.Stdout)
	}
}
