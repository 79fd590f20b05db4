// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark runs the corresponding experiment from
// internal/bench once per iteration and reports the headline series
// point as a custom metric, so `go test -bench=. -benchmem` reproduces
// the whole evaluation.
//
// Dataset sizes come from bench.DefaultScale (HGS_SCALE multiplies them).
// The figures run under the simulated latency model and reproduce the
// paper's shapes; real-cost performance is the benchmark/ module's job.
package hgs

import (
	"testing"

	"hgs/internal/bench"
)

// runFigure executes an experiment once per benchmark iteration and reports
// the last series' last point (the largest configuration measured) as a
// metric, plus prints the full result under -v.
func runFigure(b *testing.B, f func(bench.Scale) *bench.Result) {
	b.Helper()
	sc := bench.DefaultScale()
	for i := 0; i < b.N; i++ {
		r := f(sc)
		if len(r.Series) > 0 {
			s := r.Series[len(r.Series)-1]
			if len(s.Points) > 0 {
				b.ReportMetric(s.Points[len(s.Points)-1].Y, "probe-seconds")
			}
		}
		if testing.Verbose() && i == 0 {
			r.Print(benchWriter{b})
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// BenchmarkTable1 regenerates Table 1: analytical access costs plus
// measured store reads for Log, Copy, Copy+Log, Node-centric,
// DeltaGraph, and TGI.
func BenchmarkTable1(b *testing.B) { runFigure(b, bench.Table1) }

// BenchmarkFig11SnapshotParallelFetch regenerates Figure 11: snapshot
// retrieval times for parallel fetch factors c ∈ {1..32}.
func BenchmarkFig11SnapshotParallelFetch(b *testing.B) { runFigure(b, bench.Fig11) }

// BenchmarkFig12ClusterConfigs regenerates Figure 12: snapshot retrieval
// across (m=1,r=1), (m=2,r=1), (m=2,r=2).
func BenchmarkFig12ClusterConfigs(b *testing.B) { runFigure(b, bench.Fig12) }

// BenchmarkFig13aCompression regenerates Figure 13a: compressed vs
// uncompressed delta storage.
func BenchmarkFig13aCompression(b *testing.B) { runFigure(b, bench.Fig13a) }

// BenchmarkFig13bPartitionSize regenerates Figure 13b: the effect of
// micro-delta partition sizes on snapshot retrieval.
func BenchmarkFig13bPartitionSize(b *testing.B) { runFigure(b, bench.Fig13b) }

// BenchmarkFig13cFriendsterSnapshots regenerates Figure 13c: snapshot
// retrieval on the Friendster dataset.
func BenchmarkFig13cFriendsterSnapshots(b *testing.B) { runFigure(b, bench.Fig13c) }

// BenchmarkFig14aEventlistSize regenerates Figure 14a: node version
// retrieval across eventlist sizes.
func BenchmarkFig14aEventlistSize(b *testing.B) { runFigure(b, bench.Fig14a) }

// BenchmarkFig14bVersionParallelFetch regenerates Figure 14b: node
// version retrieval speedups with parallel fetch.
func BenchmarkFig14bVersionParallelFetch(b *testing.B) { runFigure(b, bench.Fig14b) }

// BenchmarkFig14cVersionPartitionSize regenerates Figure 14c: node
// version retrieval across micro-delta partition sizes.
func BenchmarkFig14cVersionPartitionSize(b *testing.B) { runFigure(b, bench.Fig14c) }

// BenchmarkFig15aPartitioningReplication regenerates Figure 15a: 1-hop
// retrieval under random vs locality vs locality+replication layouts.
func BenchmarkFig15aPartitioningReplication(b *testing.B) { runFigure(b, bench.Fig15a) }

// BenchmarkFig15bGrowingData regenerates Figure 15b: snapshot retrieval
// as the indexed history grows (Datasets 1–3).
func BenchmarkFig15bGrowingData(b *testing.B) { runFigure(b, bench.Fig15b) }

// BenchmarkFig15cTAFScaling regenerates Figure 15c: TAF local clustering
// coefficient computation across compute-worker counts.
func BenchmarkFig15cTAFScaling(b *testing.B) { runFigure(b, bench.Fig15c) }

// BenchmarkFig16FriendsterVersions regenerates Figure 16: node version
// retrieval on Friendster.
func BenchmarkFig16FriendsterVersions(b *testing.B) { runFigure(b, bench.Fig16) }

// BenchmarkFig17IncrementalCompute regenerates Figure 17:
// NodeComputeTemporal vs NodeComputeDelta cumulative compute times.
func BenchmarkFig17IncrementalCompute(b *testing.B) { runFigure(b, bench.Fig17) }

// BenchmarkAblationArity measures snapshot retrieval and index size
// across delta-tree arities.
func BenchmarkAblationArity(b *testing.B) { runFigure(b, bench.AblationArity) }

// BenchmarkAblationVersionChains measures node history retrieval with
// and without the Versions table.
func BenchmarkAblationVersionChains(b *testing.B) { runFigure(b, bench.AblationVersionChains) }
