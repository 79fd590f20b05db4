package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// tinyScale keeps the smoke tests fast; the real benches run at
// DefaultScale through cmd/hgs-bench and the root testing.B harness.
func tinyScale() Scale {
	return Scale{
		WikiNodes:        1500,
		WikiEdgesPerNode: 3,
		Augment2:         2500,
		Augment3:         5000,
		// Friendster must exceed ps × sids so micro-partitioning (and
		// therefore the Fig 15a layout comparison) is non-degenerate.
		FriendsterCommunities: 24,
		FriendsterSize:        200,
		DBLPAuthors:           200,
		DBLPPapers:            400,
		DBLPChurn:             600,
	}
}

func checkResult(t *testing.T, r *Result, wantSeries int) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Fatalf("result missing identity: %+v", r)
	}
	if len(r.Series) < wantSeries {
		t.Fatalf("%s: got %d series, want >= %d", r.ID, len(r.Series), wantSeries)
	}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %q has no points", r.ID, s.Name)
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Fatalf("%s: negative measurement in %q", r.ID, s.Name)
			}
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s: Print produced nothing", r.ID)
	}
}

// skipIfShort keeps `go test -short ./...` (the tier-1 gate) to
// seconds: each smoke test builds multi-index TGIs and times real
// retrievals (~15s combined at tiny scale on a 2-core host, most of it
// shared with TestFigureShapesModelled through the index cache).
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("bench smoke test skipped in -short mode")
	}
}

// modelled returns the modelled storage time of every point of r, by
// series name.
func modelled(r *Result) map[string][]float64 {
	out := make(map[string][]float64, len(r.Series))
	for _, s := range r.Series {
		for _, p := range s.Points {
			out[s.Name] = append(out[s.Name], p.Model)
		}
	}
	return out
}

// last is the modelled storage time of a series' last point.
func last(t *testing.T, m map[string][]float64, series string) float64 {
	t.Helper()
	ys := m[series]
	if len(ys) == 0 || ys[len(ys)-1] <= 0 {
		t.Fatalf("series %q has no modelled storage time: %v", series, ys)
	}
	return ys[len(ys)-1]
}

// TestFigureShapesModelled asserts three of the paper's figure shapes
// on the modelled storage component alone, which is deterministic and
// cheap (nothing sleeps), so it runs under -short: a second machine
// shortens the busiest node's share of a snapshot (Fig 12), compressed
// deltas move fewer bytes (Fig 13a), and locality partitioning reads
// no more than random placement for a 1-hop neighbourhood (Fig 15a).
// A second run must reproduce every modelled value exactly.
func TestFigureShapesModelled(t *testing.T) {
	sc := tinyScale()
	run := func() []map[string][]float64 {
		return []map[string][]float64{modelled(Fig12(sc)), modelled(Fig13a(sc)), modelled(Fig15a(sc))}
	}
	first := run()
	fig12, fig13a, fig15a := first[0], first[1], first[2]
	if m1, m2 := last(t, fig12, "m=1,r=1,c=1"), last(t, fig12, "m=2,r=1,c=1"); m2 >= m1 {
		t.Errorf("Fig 12: m=2,r=1 models %.6fs, not below m=1,r=1 at %.6fs", m2, m1)
	}
	if c, u := last(t, fig13a, "compressed"), last(t, fig13a, "uncompressed"); c >= u {
		t.Errorf("Fig 13a: compressed models %.6fs, not below uncompressed at %.6fs", c, u)
	}
	if l, r := last(t, fig15a, "maxflow"), last(t, fig15a, "random"); l > r {
		t.Errorf("Fig 15a: locality models %.6fs, above random at %.6fs", l, r)
	}
	if again := run(); !reflect.DeepEqual(again, first) {
		t.Errorf("modelled values differ between runs:\n%v\n%v", first, again)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	ResetCache()
	os.Exit(code)
}

func TestFig11Smoke(t *testing.T) {
	skipIfShort(t)
	r := Fig11(tinyScale())
	checkResult(t, r, 6)
	// Parallel fetch must not be slower than serial by a large factor on
	// the largest snapshot (shape check: c helps or at least not hurts).
	serial := r.Series[0].Points[len(r.Series[0].Points)-1].Y
	parallel := r.Series[2].Points[len(r.Series[2].Points)-1].Y // c=4
	if parallel > serial*1.5 {
		t.Errorf("c=4 slower than c=1: %.4fs vs %.4fs", parallel, serial)
	}
}

func TestFig12Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig12(tinyScale()), 12)
}

func TestFig13Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig13a(tinyScale()), 2)
	checkResult(t, Fig13b(tinyScale()), 3)
	checkResult(t, Fig13c(tinyScale()), 1)
}

func TestFig14Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig14a(tinyScale()), 3)
	checkResult(t, Fig14b(tinyScale()), 3)
	checkResult(t, Fig14c(tinyScale()), 1)
}

func TestFig15Smoke(t *testing.T) {
	skipIfShort(t)
	a := Fig15a(tinyScale())
	checkResult(t, a, 3)
	// Shape: locality ("maxflow") partitioning must beat random for
	// 1-hop retrieval; replication must stay in locality's band (its
	// strict win over plain locality only emerges at larger scales —
	// see EXPERIMENTS.md Figure 15a).
	random := a.Series[0].Points[0].Y
	maxflow := a.Series[1].Points[0].Y
	replicated := a.Series[2].Points[0].Y
	if maxflow > random {
		t.Errorf("locality (%.5fs) not better than random (%.5fs)", maxflow, random)
	}
	if replicated > 1.5*maxflow {
		t.Errorf("replication (%.5fs) far off locality (%.5fs)", replicated, maxflow)
	}
	checkResult(t, Fig15b(tinyScale()), 3)
	checkResult(t, Fig15c(tinyScale()), 3)
}

func TestFig16Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig16(tinyScale()), 2)
}

func TestFig17Smoke(t *testing.T) {
	skipIfShort(t)
	r := Fig17(tinyScale())
	checkResult(t, r, 2)
	// Shape: incremental computation must beat per-version recomputation
	// at the largest version count.
	fresh := r.Series[0].Points[len(r.Series[0].Points)-1].Y
	incr := r.Series[1].Points[len(r.Series[1].Points)-1].Y
	if incr > fresh {
		t.Errorf("incremental (%.5fs) not faster than fresh (%.5fs)", incr, fresh)
	}
}

func TestTable1Smoke(t *testing.T) {
	skipIfShort(t)
	r := Table1(tinyScale())
	if len(r.TableRows) < 12 { // 6 analytical + header + 6 measured
		t.Fatalf("table rows = %d", len(r.TableRows))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("DeltaGraph")) {
		t.Fatal("table missing DeltaGraph row")
	}
}

func TestAblationsSmoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, AblationArity(tinyScale()), 1)
	r := AblationVersionChains(tinyScale())
	checkResult(t, r, 2)
}

// TestRunnersComplete pins the harness to the paper reproduction: the
// sixteen ids of Table 1, Figures 11–17 and the two ablations, in paper
// order, each with a runner and no runner beside them.
func TestRunnersComplete(t *testing.T) {
	want := []string{
		"table1", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
		"fig14a", "fig14b", "fig14c", "fig15a", "fig15b", "fig15c",
		"fig16", "fig17", "ablation-arity", "ablation-vc",
	}
	if !slices.Equal(Order, want) {
		t.Errorf("Order = %v, want %v", Order, want)
	}
	if len(Runners) != len(want) {
		t.Errorf("%d runners, want %d", len(Runners), len(want))
	}
	for _, id := range want {
		if _, ok := Runners[id]; !ok {
			t.Errorf("missing runner %q", id)
		}
	}
}

func TestDefaultScaleEnv(t *testing.T) {
	t.Setenv("HGS_SCALE", "0.5")
	sc := DefaultScale()
	if sc.WikiNodes != 10_000 {
		t.Fatalf("HGS_SCALE not applied: %d", sc.WikiNodes)
	}
	t.Setenv("HGS_SCALE", "bogus")
	if DefaultScale().WikiNodes != 20_000 {
		t.Fatal("bogus HGS_SCALE should fall back to defaults")
	}
}

// TestDatasetDiskCache covers the HGS_DATASET_DIR layer the scheduled
// perf workflow relies on: the first build writes a gob file, a fresh
// process (simulated by dropping the in-memory cache) loads the same
// events from disk instead of regenerating.
func TestDatasetDiskCache(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("HGS_DATASET_DIR", dir)
	ResetCache()
	defer ResetCache()
	sc := Scale{WikiNodes: 64, WikiEdgesPerNode: 2}
	first := Dataset1(sc)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("dataset cache dir holds %d files (err %v), want 1", len(entries), err)
	}
	ResetCache() // a new job: in-memory cache gone, disk cache warm
	second := Dataset1(sc)
	if len(first) != len(second) {
		t.Fatalf("disk-cached dataset has %d events, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("disk-cached event %d differs: %+v vs %+v", i, second[i], first[i])
		}
	}
	// A corrupt cache file regenerates instead of failing.
	ResetCache()
	if err := os.WriteFile(filepath.Join(dir, entries[0].Name()), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := Dataset1(sc)
	if len(third) != len(first) {
		t.Fatalf("corrupt cache file not regenerated: %d events", len(third))
	}
}
