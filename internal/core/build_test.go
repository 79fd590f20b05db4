package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/obs"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// The golden index: a fixed seeded stream built into several timespans
// and eventlists over four horizontal partitions, then three Append
// batches into the partial trailing span. Every stored row is pinned by
// one digest per table and configuration, so a change to the build path
// that moves any key or payload byte fails here and names the table.
const (
	goldenLoad    = 700 // 3 full timespans of 200 events + a 100-event partial one
	goldenBatch   = 30
	goldenBatches = 3
)

func goldenStream() []graph.Event {
	return genHistory(11, goldenLoad+goldenBatch*goldenBatches, 60)
}

func goldenConfigs() map[string]Config {
	random := DefaultConfig()
	random.TimespanEvents = 200
	random.EventlistSize = 40
	random.HorizontalPartitions = 4
	random.PartitionSize = 8
	replicated := random
	replicated.Partitioning = partition.Locality
	replicated.Replicate1Hop = true
	return map[string]Config{"random": random, "replicated": replicated}
}

// emptyDigest is the digest of a table with no rows.
const emptyDigest = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

// goldenDigests are the SHA-256 digests of the golden index per config
// and table (tableDigests).
var goldenDigests = map[string]map[string]string{
	"random": {
		TableDeltas:    "df9531596b8d88ec00b355a78291f8655be3d4c45e919a8083f497c9513ac236",
		TableEvents:    "8748931dd87413eebd5c3a404cc9a2860c23168018660267bf82d461f2dbc93c",
		TableVersions:  "293c5799feba69f23f39dc63bf8d9ead9ad89ffd84393e0e3c582c9c69c68418",
		TableTimespans: "2238945e46ebc3490b1193c8238d7ad97b2f20c9f16c23052ecaf034921afc6f",
		TableGraph:     "00e08b91d7f66c77e8d064126afbbd4a1071479f0af139867fdd7180f31f3e83",
		TableMicroPart: emptyDigest,
		TableAux:       emptyDigest,
		TableAuxEvents: emptyDigest,
	},
	"replicated": {
		TableDeltas:    "51df7318e3594e5ac2420aa97332bfc1f3406af3b9bb28218bf2d416f47e2668",
		TableEvents:    "f2f2b454bac9e2f71f58cb33cdc64de1f40ecc25494c76675bacf150d02a3d95",
		TableVersions:  "293c5799feba69f23f39dc63bf8d9ead9ad89ffd84393e0e3c582c9c69c68418",
		TableTimespans: "d77e129408186d8f476814263968d9a5a7ce5ec05c978909c434450c271e17c5",
		TableGraph:     "3dd3519028ecf786e88979587dbabb2bfec294afe86adbec6ed4ecf7573296a5",
		TableMicroPart: "736534da082f10449c38f4b130e9eb85ca0386430c735803b04e656f0dbc2f24",
		TableAux:       "cd2fc94df54865ffa7b90bd4d84aeac9aa563e8397943c58944667a8bb541807",
		TableAuxEvents: "c44050fa0862dab65ec24a80e6098e75f2f14bffd6fab0a68d47f167b51c5144",
	},
}

// buildGolden loads the golden stream's prefix and appends its batches.
func buildGolden(tb testing.TB, cfg Config) *kvstore.Cluster {
	tb.Helper()
	events := goldenStream()
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	tgi, err := Build(store, cfg, events[:goldenLoad])
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	for i := 0; i < goldenBatches; i++ {
		off := goldenLoad + i*goldenBatch
		if err := tgi.Append(events[off : off+goldenBatch]); err != nil {
			tb.Fatalf("Append batch %d: %v", i, err)
		}
	}
	return store
}

// tableDigests hashes every stored row of each table — partition key,
// clustering key and payload (the cluster strips its stamp envelope on
// read) — in key order.
func tableDigests(store *kvstore.Cluster) map[string]string {
	out := make(map[string]string)
	for _, table := range []string{TableDeltas, TableEvents, TableVersions, TableTimespans,
		TableGraph, TableMicroPart, TableAux, TableAuxEvents} {
		h := sha256.New()
		field := func(b []byte) {
			var n [binary.MaxVarintLen64]byte
			h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
			h.Write(b)
		}
		for _, pkey := range store.PartitionKeys(table) {
			for _, row := range store.ScanPartition(table, pkey) {
				field([]byte(pkey))
				field([]byte(row.CKey))
				field(row.Value)
			}
		}
		out[table] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// storeDigest is one digest over every stored row of every table.
func storeDigest(store *kvstore.Cluster) string { return fmt.Sprint(tableDigests(store)) }

// checkGoldenAnswers requires the golden index in store to answer
// snapshots like the oracle.
func checkGoldenAnswers(t *testing.T, tgi *TGI) {
	t.Helper()
	events := goldenStream()
	end := events[len(events)-1].Time
	for _, tt := range []temporal.Time{0, end / 3, end / 2, end} {
		got, err := tgi.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(events, tt); !got.Equal(want) {
			t.Fatalf("snapshot@%d differs from the oracle", tt)
		}
	}
}

func TestGoldenIndexDigest(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			store := buildGolden(t, cfg)
			for table, got := range tableDigests(store) {
				if want := goldenDigests[name][table]; got != want {
					t.Errorf("table %s: stored rows digest = %s, want %s; a change to stored bytes bumps core.Format "+
						"(see internal/reclog/testdata/compat/README.md)", table, got, want)
				}
			}
			// The pinned index must also answer correctly.
			checkGoldenAnswers(t, New(store, cfg))
		})
	}
}

// TestAttachRefusesOtherFormat: a graph-meta row of another format (here
// one written before the number existed, format 0) is refused with
// ErrFormat by Attach, by a New handle's first query and by Append.
func TestAttachRefusesOtherFormat(t *testing.T) {
	store := buildGolden(t, goldenConfigs()["random"])
	store.Put(TableGraph, "graph", "info", []byte(`{"Name":"tgi","Start":10,"End":7900,"Events":790,"TimespanCount":4,`+
		`"Config":{"TimespanEvents":200,"EventlistSize":40,"Arity":2,"HorizontalPartitions":4,"PartitionSize":8,`+
		`"Partitioning":0,"Omega":0,"NodeWeighting":0,"Replicate1Hop":false,"Compress":false,"FetchClients":4}}`))
	want := fmt.Sprintf("format 0, this build reads format %d", Format)
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want ErrFormat naming %q", what, err, want)
		}
	}
	_, _, err := Attach(store, DefaultConfig())
	check("Attach", err)
	_, err = New(store, DefaultConfig()).GetSnapshot(100, nil)
	check("New then GetSnapshot", err)
	check("Append", New(store, DefaultConfig()).Append([]graph.Event{{Time: 9000, Kind: graph.AddNode, Node: 1}}))
}

// TestAttachKeepsRuntimeKnobs: every json:"-" field of Config is a knob
// of the reading process, so Attach must keep the caller's value while
// it adopts the stored construction parameters.
func TestAttachKeepsRuntimeKnobs(t *testing.T) {
	store := kvstore.NewCluster(kvstore.Config{Machines: 2, Replication: 1})
	if _, err := Build(store, smallConfig(), genHistory(3, 60, 12)); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	want := reflect.ValueOf(&cfg).Elem()
	var knobs []string
	for i := 0; i < want.NumField(); i++ {
		f, v := want.Type().Field(i), want.Field(i)
		if f.Tag.Get("json") != "-" {
			continue
		}
		knobs = append(knobs, f.Name)
		switch {
		case f.Type == reflect.TypeOf(&obs.Registry{}):
			v.Set(reflect.ValueOf(obs.NewRegistry()))
		case v.Kind() == reflect.Bool:
			v.SetBool(true)
		case v.CanInt():
			v.SetInt(1 << 20)
		default:
			t.Fatalf("no non-zero test value for runtime knob %s of type %s", f.Name, f.Type)
		}
	}
	if len(knobs) == 0 {
		t.Fatal(`Config has no json:"-" fields`)
	}
	tgi, attached, err := Attach(store, cfg)
	if err != nil || !attached {
		t.Fatalf("Attach: attached=%v err=%v", attached, err)
	}
	got := reflect.ValueOf(tgi.Config())
	for _, name := range knobs {
		if g, w := got.FieldByName(name).Interface(), want.FieldByName(name).Interface(); g != w {
			t.Errorf("Attach dropped runtime knob %s: got %v, want %v", name, g, w)
		}
	}
	if got := tgi.Config().TimespanEvents; got != smallConfig().TimespanEvents {
		t.Errorf("TimespanEvents = %d, want the stored %d", got, smallConfig().TimespanEvents)
	}
}

// BenchmarkBuildAll loads the golden stream's prefix into a fresh store,
// which is an Append into the empty index:
//
//	go test ./internal/core -run '^$' -bench Build -benchmem
func BenchmarkBuildAll(b *testing.B) {
	cfg := goldenConfigs()["random"]
	events := goldenStream()[:goldenLoad]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
		if _, err := Build(store, cfg, events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendPartialSpan appends the golden batches into the partial
// trailing span (each Append extends that span in place, or re-places
// it when a batch changes its micro-partition counts); the initial load
// is not timed.
func BenchmarkAppendPartialSpan(b *testing.B) {
	cfg := goldenConfigs()["random"]
	events := goldenStream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
		tgi, err := Build(store, cfg, events[:goldenLoad])
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < goldenBatches; j++ {
			off := goldenLoad + j*goldenBatch
			if err := tgi.Append(events[off : off+goldenBatch]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestPIDsSpreadWithinSid: within every horizontal partition, the
// random-placement pid hash fills every micro-partition — each (sid,
// pid) cell of 20,000 consecutive ids gets at least half its even share.
// FNV-1a alone, the sid hash, correlates the two residues and leaves
// cells empty for an even pid count.
func TestPIDsSpreadWithinSid(t *testing.T) {
	const ids = 20000
	for ns := 1; ns <= 8; ns++ {
		for npids := 1; npids <= 16; npids++ {
			cells := make([]int, ns*npids)
			for id := graph.NodeID(0); id < ids; id++ {
				cells[sidOf(id, ns)*npids+partition.MixPID(id, npids)]++
			}
			for c, n := range cells {
				if share := ids / (ns * npids); 2*n < share {
					t.Fatalf("ns=%d npids=%d: sid %d pid %d holds %d ids, even share %d", ns, npids, c/npids, c%npids, n, share)
				}
			}
		}
	}
}

// BenchmarkAppendOpenSpan appends 100 events into an open trailing span
// that already holds 1/8 or 7/8 of TimespanEvents, rebuilt untimed
// before every append: an Append that extends the span in place costs
// the same at either fill.
//
//	go test ./internal/core -run '^$' -bench AppendOpenSpan -benchmem
func BenchmarkAppendOpenSpan(b *testing.B) {
	cfg := DefaultConfig()
	cfg.TimespanEvents = 4000
	cfg.EventlistSize = 500
	cfg.PartitionSize = 50
	const batch = 100
	events := genHistory(11, 2*cfg.TimespanEvents+batch, 2000)
	for _, eighths := range []int{1, 7} {
		b.Run(fmt.Sprintf("fill=%dof8", eighths), func(b *testing.B) {
			prefix := cfg.TimespanEvents + eighths*cfg.TimespanEvents/8
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
				tgi, err := Build(store, cfg, events[:prefix])
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := tgi.Append(events[prefix : prefix+batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
