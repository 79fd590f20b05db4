// Package tiered is the directory layout of the disk engine with a
// memory budget: a disklog under dir/cold holds every row durably, with
// Options.HotBytes of resident value copies (disklog.Options.HotBytes),
// so the working set the paper calls hot — the newest timespans and
// deltas, which most queries touch — is served without disk I/O while
// history stays durable and cheap on disk. Eviction, recovery, the
// restart fill and the tier counters are disklog's; see that package.
//
// Directories written by earlier versions of the engine keep recent
// writes in a write-ahead log under dir/wal; Open carries it into the
// cold log and removes it (see migrateWAL).
package tiered

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/reclog"
)

// Options tune the engine. Zero values take the defaults.
type Options struct {
	// HotBytes is the budget of the resident value copies: once they
	// (clustering key plus value bytes per row) exceed it, the oldest
	// written are released (default 32 MiB). It overrides Cold.HotBytes.
	HotBytes int64
	// Cold tunes the disklog that holds every row durably.
	Cold disklog.Options
}

// Store is one node's tiered engine: the disklog under dir/cold.
type Store struct {
	*disklog.Store
}

// Open opens (or creates) the engine rooted at dir. The cold log is
// opened (and locked) first — its replay fills the resident copies with
// the newest rows — and a write-ahead log left by an earlier version of
// the engine is then carried into it.
func Open(dir string, opts Options) (*Store, error) {
	cold := opts.Cold
	cold.HotBytes = opts.HotBytes
	if cold.HotBytes <= 0 {
		cold.HotBytes = 32 << 20
	}
	s, err := disklog.Open(filepath.Join(dir, "cold"), cold)
	if err != nil {
		return nil, err
	}
	if err := migrateWAL(dir, s); err != nil {
		s.Close()
		return nil, fmt.Errorf("tiered: %w", err)
	}
	return &Store{s}, nil
}

// migrateWAL carries the write-ahead log that earlier versions of the
// engine kept under dir/wal into the cold log: the records are replayed
// in order (a torn tail is truncated, as the old engine did), the cold
// log is flushed, and only then is wal/ removed and the directory
// fsynced. A crash before the removal replays the log again on the next
// open; that is harmless, because the last write of each row decides
// its state either way.
func migrateWAL(dir string, cold *disklog.Store) error {
	walDir := filepath.Join(dir, "wal")
	if _, err := os.Stat(walDir); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	wal, err := reclog.Open(walDir, "wal", math.MaxInt64)
	if err != nil {
		return err
	}
	err = wal.Scan(func(_ *reclog.Segment, _ int64, payload []byte) error {
		m, _, err := reclog.DecodeMutation(payload)
		if err != nil {
			return err
		}
		switch m.Op {
		case reclog.OpPut:
			cold.Put(m.Table, m.PKey, m.CKey, append([]byte{}, m.Value...)) // Put retains; the payload is reused
		case reclog.OpDel:
			cold.Delete(m.Table, m.PKey, m.CKey)
		case reclog.OpDrop:
			cold.DropPartition(m.Table, m.PKey)
		}
		return nil
	})
	wal.Close()
	if err != nil {
		return err
	}
	if err := cold.Flush(); err != nil {
		return err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Factory builds tiered engines, one directory per cluster node, under
// root.
func Factory(root string, opts Options) backend.Factory {
	return func(node int) (backend.Backend, error) {
		return Open(filepath.Join(root, backend.NodeDir(node)), opts)
	}
}

// Backup writes a consistent copy of the cold log into dir/cold, so the
// copy opens as a normal tiered directory. A target holding a
// write-ahead log is refused before anything is written: opening the
// copy would replay that log over it.
func (s *Store) Backup(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "wal")); err == nil {
		return fmt.Errorf("tiered: backup target %s already holds a write-ahead log", dir)
	}
	return s.Store.Backup(filepath.Join(dir, "cold"))
}

var _ backend.Backend = (*Store)(nil)
var _ backend.Tiered = (*Store)(nil)
var _ backend.Backuper = (*Store)(nil)
