package core

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"hgs/internal/backend"
	"hgs/internal/backend/tiered"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
)

// openTieredCluster builds a cluster over tiered engines rooted at dir
// and hands back the engines so the test can crash them.
func openTieredCluster(t *testing.T, dir string, opts tiered.Options) (*kvstore.Cluster, []*tiered.Store) {
	t.Helper()
	var engines []*tiered.Store
	inner := tiered.Factory(dir, opts)
	cluster, err := kvstore.Open(kvstore.Config{
		Machines: 3,
		Backend: func(node int) (backend.Backend, error) {
			be, err := inner(node)
			if err == nil {
				engines = append(engines, be.(*tiered.Store))
			}
			return be, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, engines
}

// TestTieredCrashRecoveryViaAttach kills every node of a tiered store
// right after a build — a tiny memory budget keeps most rows only in
// the cold log, and no Flush runs — then reopens the directory through
// core.Attach and requires every query to match the oracle: no
// acknowledged event may be lost, whether its rows were still in memory
// or only on disk.
func TestTieredCrashRecoveryViaAttach(t *testing.T) {
	dir := t.TempDir()
	events := genHistory(31, 600, 60)
	cfg := smallConfig()

	opts := tiered.Options{HotBytes: 4 << 10} // most rows evicted from memory
	cluster, engines := openTieredCluster(t, dir, opts)
	if _, err := Build(cluster, cfg, events); err != nil {
		t.Fatal(err)
	}
	if len(engines) != 3 {
		t.Fatalf("expected 3 tiered engines, got %d", len(engines))
	}
	// Crash every node where it stands: no final fsync.
	for _, e := range engines {
		e.Kill()
	}

	reopened, _ := openTieredCluster(t, dir, opts)
	tgi, attached, err := Attach(reopened, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !attached {
		t.Fatal("Attach found no index after crash recovery")
	}
	for _, tt := range []temporal.Time{10, 1500, 3000, 4500, 6000} {
		g, err := tgi.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatalf("snapshot@%d after crash: %v", tt, err)
		}
		if !g.Equal(oracle(events, tt)) {
			t.Fatalf("snapshot@%d diverged from oracle after crash recovery", tt)
		}
	}
	lo, hi, err := tgi.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	if lo != events[0].Time || hi != events[len(events)-1].Time {
		t.Fatalf("time range [%d,%d] after crash, want [%d,%d]", lo, hi, events[0].Time, events[len(events)-1].Time)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredTornTailRecoveryViaAttach crashes a tiered store and then
// corrupts the cold log the way a real crash does — a half-written
// record at its tail — and requires the reopen to truncate the torn
// tail while serving every acknowledged event.
func TestTieredTornTailRecoveryViaAttach(t *testing.T) {
	dir := t.TempDir()
	events := genHistory(32, 400, 50)
	cfg := smallConfig()

	opts := tiered.Options{HotBytes: 8 << 10}
	cluster, engines := openTieredCluster(t, dir, opts)
	if _, err := Build(cluster, cfg, events); err != nil {
		t.Fatal(err)
	}
	// Flush so everything written so far is acknowledged-durable, then
	// crash and tear the log tails.
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		e.Kill()
	}
	torn := 0
	for node := 0; node < 3; node++ {
		torn += tearLastLog(t, filepath.Join(dir, backend.NodeDir(node), "cold"), "seg-")
	}
	if torn != 3 {
		t.Fatalf("tore %d cold logs, want 3", torn)
	}

	reopened, _ := openTieredCluster(t, dir, opts)
	defer reopened.Close()
	tgi, attached, err := Attach(reopened, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !attached {
		t.Fatal("Attach found no index after torn-tail recovery")
	}
	hi := events[len(events)-1].Time
	for _, tt := range []temporal.Time{1000, 2000, hi} {
		g, err := tgi.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatalf("snapshot@%d after torn-tail recovery: %v", tt, err)
		}
		if !g.Equal(oracle(events, tt)) {
			t.Fatalf("snapshot@%d diverged after torn-tail recovery", tt)
		}
	}
}

// tearLastLog appends a plausible-but-torn record (valid header, short
// payload) to the newest log file under dir whose name starts with
// prefix, returning how many files it tore.
func tearLastLog(t *testing.T, dir, prefix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var last string
	for _, e := range entries {
		name := e.Name()
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			if last == "" || name > last {
				last = name
			}
		}
	}
	if last == "" {
		return 0
	}
	f, err := os.OpenFile(filepath.Join(dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A record claiming 64 payload bytes, with only 5 present.
	payload := []byte("torn!")
	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:4], 64)
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(append(header[:], payload...)); err != nil {
		t.Fatal(err)
	}
	return 1
}
