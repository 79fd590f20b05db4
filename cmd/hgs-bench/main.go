// Command hgs-bench regenerates the paper's evaluation tables and
// figures (Khurana & Deshpande, EDBT 2016, §6) on the scaled synthetic
// datasets and prints the plotted series.
//
// Usage:
//
//	hgs-bench                 # run everything
//	hgs-bench -list           # list experiment ids
//	hgs-bench -run fig11      # run one experiment
//	hgs-bench -run cache      # cache v2: cold / warm / off
//	                          # passes with the negative-hit ratio
//	hgs-bench -run tiering    # hot-tier budget sweep on the tiered backend
//	hgs-bench -run reopen     # post-restart probes, warm-up off vs on
//	HGS_SCALE=4 hgs-bench     # scale all datasets 4x
//	hgs-bench -run fig11 -data /tmp/bench-disk   # same workload on the
//	                          # durable disk backend (memory vs disk)
//	hgs-bench -json out.json  # also write machine-readable results
//	                          # (per-pass KV reads, round-trips, sim-wait,
//	                          # cache ratios, latency quantiles) — the
//	                          # format scripts/perfdiff ratchets against
//
// Every figure run reports its store metrics (logical KV operations,
// machine round-trips, simulated service time) and the decoded-delta
// cache counters as notes, so performance claims are checkable from the
// CLI output alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"hgs/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "", "comma-free experiment id to run (default: all)")
	dataDir := flag.String("data", "", "run storage clusters on the durable disk backend under this (fresh) directory, to compare memory vs disk")
	jsonPath := flag.String("json", "", "also write the results as a machine-readable JSON report to this path")
	flag.Parse()

	if *dataDir != "" {
		if entries, err := os.ReadDir(*dataDir); err == nil && len(entries) > 0 {
			fmt.Fprintf(os.Stderr, "hgs-bench: -data %s is not empty; benchmarks need a fresh directory\n", *dataDir)
			os.Exit(1)
		}
		bench.SetDataDir(*dataDir)
		defer bench.ResetCache() // close disk engines before exit
	}

	if *list {
		ids := make([]string, 0, len(bench.Runners))
		for id := range bench.Runners {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	sc := bench.DefaultScale()
	fmt.Printf("# HGS evaluation harness — scale: %d wiki nodes, %d friendster nodes, %d dblp entities\n",
		sc.WikiNodes, sc.FriendsterCommunities*sc.FriendsterSize, sc.DBLPAuthors+sc.DBLPPapers)
	fmt.Printf("# started %s\n\n", time.Now().Format(time.RFC3339))

	var results []*bench.Result
	if *run != "" {
		runner, ok := bench.Runners[*run]
		if !ok {
			fmt.Fprintf(os.Stderr, "hgs-bench: unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		res := runner(sc)
		res.Print(os.Stdout)
		results = append(results, res)
	} else {
		// Stream results as each experiment completes.
		for _, id := range bench.Order {
			res := bench.Runners[id](sc)
			res.Print(os.Stdout)
			results = append(results, res)
		}
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, sc, results); err != nil {
			fmt.Fprintf(os.Stderr, "hgs-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# wrote JSON report: %s\n", *jsonPath)
	}
}

// writeReport writes the machine-readable run to path (stdout with "-").
func writeReport(path string, sc bench.Scale, results []*bench.Result) error {
	rep := &bench.Report{Scale: sc, Results: results}
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
