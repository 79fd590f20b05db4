// Package tiered is the directory layout of the disk engine with a
// memory budget: a disklog under dir/cold holds every row durably, with
// Options.HotBytes of resident value copies (disklog.Options.HotBytes),
// so the working set the paper calls hot — the newest timespans and
// deltas, which most queries touch — is served without disk I/O while
// history stays durable and cheap on disk. Eviction, recovery, the
// restart fill and the tier counters are disklog's; see that package.
package tiered

import (
	"path/filepath"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
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

// Open opens (or creates) the engine rooted at dir: the cold log is
// opened and locked, and its replay fills the resident copies with the
// newest rows.
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
	return &Store{s}, nil
}

// Factory builds tiered engines, one directory per cluster node, under
// root.
func Factory(root string, opts Options) backend.Factory {
	return func(node int) (backend.Backend, error) {
		return Open(filepath.Join(root, backend.NodeDir(node)), opts)
	}
}

// Backup writes a consistent copy of the cold log into dir/cold, so the
// copy opens as a normal tiered directory.
func (s *Store) Backup(dir string) error {
	return s.Store.Backup(filepath.Join(dir, "cold"))
}

var _ backend.Backend = (*Store)(nil)
