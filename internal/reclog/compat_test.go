package reclog_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/kvstore"
)

// The directories under testdata/compat were written by the storage code
// of the commit before this package existed (testdata/compat/README.md);
// the .expected files are what that code answered. Each test opens a
// scratch copy, since opening may truncate, lock and append.

func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "compat", name)
	dst := filepath.Join(t.TempDir(), name)
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func dump(be backend.Backend) []byte {
	var b bytes.Buffer
	for _, tbl := range be.Tables() {
		for _, pk := range be.PartitionKeys(tbl) {
			for _, r := range be.ScanPrefix(tbl, pk, "") {
				fmt.Fprintf(&b, "%q %q %q %q\n", tbl, pk, r.CKey, r.Value)
			}
		}
	}
	return b.Bytes()
}

func wantFile(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestCompatDisklogDir(t *testing.T) {
	s, err := disklog.Open(copyFixture(t, "disk"), disklog.Options{SegmentBytes: 512, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := dump(s), wantFile(t, "disk.expected"); !bytes.Equal(got, want) {
		t.Fatalf("parent-written disklog dir answers differently:\n got:\n%s\nwant:\n%s", got, want)
	}
	if s.Segments() != 6 {
		t.Fatalf("opened %d segments, want the fixture's 6", s.Segments())
	}
}

// TestCompatClusterHints reopens a cluster that closed with node 1 down
// and hints pending for it. Every expected row must be served by each
// replica on its own, the hinted one included.
func TestCompatClusterHints(t *testing.T) {
	dir := copyFixture(t, "cluster")
	c, err := kvstore.Open(kvstore.Config{
		Machines: 3, Replication: 2,
		Backend: disklog.Factory(dir, disklog.Options{}),
		HintDir: filepath.Join(dir, "hints"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if fi, err := os.Stat(filepath.Join(dir, "hints", "node-001.hints")); err != nil || fi.Size() != 0 {
		t.Fatalf("replayed hint log not emptied: %v %v", fi, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(wantFile(t, "cluster.expected")))
	for sc.Scan() {
		var table, pkey, ckey, want string
		absent := false
		if _, err := fmt.Sscanf(sc.Text(), "%q %q %q %q", &table, &pkey, &ckey, &want); err != nil {
			if _, err := fmt.Sscanf(sc.Text(), "%q %q %q -", &table, &pkey, &ckey); err != nil {
				t.Fatalf("bad expectation %q: %v", sc.Text(), err)
			}
			absent = true
		}
		replicas := c.ReplicasOf(table, pkey)
		for _, serve := range replicas {
			for _, other := range replicas {
				if other != serve {
					if err := c.FailNode(other); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, ok := c.Get(table, pkey, ckey)
			if ok == absent || string(got) != want {
				t.Errorf("node %d alone: %s/%s/%s = %q,%v; want %q, absent=%v", serve, table, pkey, ckey, got, ok, want, absent)
			}
			for _, other := range replicas {
				if other != serve {
					if err := c.ReviveNode(other); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
