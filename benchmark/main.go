// Command benchmark is the repository's performance benchmark: five
// workloads over the hgs library and its HTTP server with latency
// simulation off, six end-to-end metrics per workload, and a traced run
// that reports per-layer metrics from spans, counters and probes taken
// around the program's public functions. README.md in this directory says
// why each workload exists and how the metrics relate; BENCHMARK.json at
// the repository root is the contract this program is run under.
//
// One workload, as the driver runs it (from the repository root):
//
//	bash benchmark/run.sh --workload point_cold --seed 7 --seconds 10 --trace 0
//
// Every workload, for a person (from this directory):
//
//	go run . -seed 1              end-to-end metrics
//	go run . -seed 1 -trace 1     per-layer metrics and out/trace-<workload>.json
//	go run . -seed 1 -repeat 5    five sets, spread per metric (-baseline: every value as JSON)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all five)")
		seed      = flag.Int64("seed", 1, "seed of the generated dataset and op stream")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		repeat    = flag.Int("repeat", 0, "run this many sets with seeds seed, seed+1, ... and report the spread")
		baseline  = flag.String("baseline", "", "with -repeat: write the medians to this JSON file")
		outDir    = flag.String("out", "out", "directory for traces and temporary stores")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printSpec {
		fmt.Print(specJSON())
		return
	}
	var todo []*workloadDef
	if *workload == "" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		todo = []*workloadDef{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %v: a window needs time", *seconds))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, every: sampleEvery, outDir: *outDir}
	if *repeat > 0 {
		ok, err := runRepeat(todo, cfg, *repeat, *baseline)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	for _, w := range todo {
		r, err := runOne(w, cfg, *trace == 1)
		if err != nil {
			fatal(err)
		}
		// The last line of a run is its result as one JSON object.
		line, err := json.Marshal(r)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload once and prints it for a person.
func runOne(w *workloadDef, cfg runConfig, traced bool) (*result, error) {
	if !traced {
		r, err := runEndToEnd(w, cfg)
		if err == nil {
			printHuman(w, r, endToEnd)
		}
		return r, err
	}
	r, path, err := runTraced(w, cfg)
	if err == nil {
		printHuman(w, r, perLayer)
		fmt.Println("  spans written to", path)
	}
	return r, err
}

// runInChild makes one end-to-end run in a fresh process, as the driver
// does, and parses the result from the last line it prints.
func runInChild(w *workloadDef, cfg runConfig, seed int64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds), "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	r := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, seed, err)
	}
	return r, nil
}

// spreadRow is one end-to-end metric of one workload over the sets of a
// -repeat run.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      float64   `json:"min"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Max      float64   `json:"max"`
	IQRShare float64   `json:"iqr_over_median"`   // the driver's spread: (q3-q1)/median
	Range    float64   `json:"range_over_median"` // (max-min)/median
	Bound    float64   `json:"bound"`
}

type baselineFile struct {
	Benchmark string      `json:"benchmark"`
	Commit    string      `json:"commit"`
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"nproc"`
	FirstSeed int64       `json:"first_seed"`
	Sets      int         `json:"sets"`
	Seconds   float64     `json:"seconds"`
	Rows      []spreadRow `json:"rows"`
}

// runRepeat runs n full sets, each on its own seed as the driver does,
// prints min/quartiles/max per end-to-end metric, and reports whether
// every spread stayed within its metric's bound and no op failed.
func runRepeat(todo []*workloadDef, cfg runConfig, n int, baselinePath string) (bool, error) {
	ok := true
	var rows []spreadRow
	for _, w := range todo {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			r, err := runInChild(w, cfg, seed)
			if err != nil {
				return false, err
			}
			if r.Failed > 0 {
				ok = false
				fmt.Printf("%s seed %d: %d of %d ops failed\n", w.name, seed, r.Failed, r.Attempted)
			}
			for name, v := range r.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, s := range endToEnd {
			v := values[s.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			row := spreadRow{Workload: w.name, Metric: s.Name, Unit: s.Unit, Values: v,
				Min: percentile(v, 0), Q1: q1, Median: med, Q3: q3, Max: percentile(v, 100), Bound: s.Bound}
			row.IQRShare, row.Range = ratio(q3-q1, med), ratio(row.Max-row.Min, med)
			verdict := ""
			if row.IQRShare > s.Bound {
				ok = false
				verdict = "  SPREAD BEYOND BOUND"
			}
			fmt.Printf("%-14s %-24s min %12.4f  q1 %12.4f  med %12.4f  q3 %12.4f  max %12.4f %-5s iqr/med %.4f  range/med %.4f  bound %.2f%s\n",
				w.name, s.Name, row.Min, q1, med, q3, row.Max, s.Unit, row.IQRShare, row.Range, s.Bound, verdict)
			rows = append(rows, row)
		}
	}
	if baselinePath == "" {
		return ok, nil
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	blob, err := json.MarshalIndent(baselineFile{Benchmark: "hgs ISSUE 12", Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), FirstSeed: cfg.seed, Sets: n, Seconds: cfg.seconds, Rows: rows}, "", " ")
	if err != nil {
		return ok, err
	}
	if err := os.MkdirAll(filepath.Dir(baselinePath), 0o755); err != nil {
		return ok, err
	}
	return ok, os.WriteFile(baselinePath, append(blob, '\n'), 0o644)
}
