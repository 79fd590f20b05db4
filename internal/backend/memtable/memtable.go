// Package memtable is the in-memory storage engine: table-scoped
// partitions of rows kept sorted by clustering key in contiguous
// slices. It is the extraction of the storage half of the original
// kvstore node and remains the default engine — nothing survives the
// process, exactly like the paper's simulated Cassandra cluster.
package memtable

import (
	"sort"
	"strings"

	"hgs/internal/backend"
)

// Store is one node's in-memory engine. It is not internally
// synchronized; the cluster serializes access per node.
type Store struct {
	tables map[string]map[string]*partition
	stored int64
}

// partition holds rows sorted by clustering key.
type partition struct {
	rows []backend.Row
}

func (p *partition) find(ckey string) (int, bool) {
	i := sort.Search(len(p.rows), func(i int) bool { return p.rows[i].CKey >= ckey })
	return i, i < len(p.rows) && p.rows[i].CKey == ckey
}

// New returns an empty in-memory engine.
func New() *Store {
	return &Store{tables: make(map[string]map[string]*partition)}
}

// Factory builds memtable engines for every cluster node.
func Factory() backend.Factory {
	return func(int) (backend.Backend, error) { return New(), nil }
}

func (s *Store) partitionFor(table, pkey string, create bool) *partition {
	t, ok := s.tables[table]
	if !ok {
		if !create {
			return nil
		}
		t = make(map[string]*partition)
		s.tables[table] = t
	}
	p, ok := t[pkey]
	if !ok {
		if !create {
			return nil
		}
		p = &partition{}
		t[pkey] = p
	}
	return p
}

// Put stores value under (table, pkey, ckey), overwriting any existing
// row. The slice is retained as-is (the cluster passes a private copy).
func (s *Store) Put(table, pkey, ckey string, value []byte) {
	p := s.partitionFor(table, pkey, true)
	i, ok := p.find(ckey)
	if ok {
		s.stored += int64(len(value) - len(p.rows[i].Value))
		p.rows[i].Value = value
		return
	}
	p.rows = append(p.rows, backend.Row{})
	copy(p.rows[i+1:], p.rows[i:])
	p.rows[i] = backend.Row{CKey: ckey, Value: value}
	s.stored += int64(len(value) + len(ckey))
}

// Get returns a copy of the value at (table, pkey, ckey).
func (s *Store) Get(table, pkey, ckey string) ([]byte, bool) {
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return nil, false
	}
	i, ok := p.find(ckey)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), p.rows[i].Value...), true
}

// MultiGet is the batch-read fast path: one partition lookup per
// consecutive (table, pkey) run instead of one per key. result[i] is nil
// exactly when reqs[i] is absent.
func (s *Store) MultiGet(reqs []backend.KeyRead) [][]byte {
	out := make([][]byte, len(reqs))
	var (
		p         *partition
		havePart  bool
		pt, ppkey string
	)
	for i, r := range reqs {
		if !havePart || r.Table != pt || r.PKey != ppkey {
			p = s.partitionFor(r.Table, r.PKey, false)
			pt, ppkey, havePart = r.Table, r.PKey, true
		}
		if p == nil {
			continue
		}
		if j, ok := p.find(r.CKey); ok {
			out[i] = append(make([]byte, 0, len(p.rows[j].Value)), p.rows[j].Value...)
		}
	}
	return out
}

// ScanPrefix returns the partition's rows with clustering keys starting
// with prefix, in clustering order, with copied values.
func (s *Store) ScanPrefix(table, pkey, prefix string) []backend.Row {
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return nil
	}
	var out []backend.Row
	i := sort.Search(len(p.rows), func(i int) bool { return p.rows[i].CKey >= prefix })
	for ; i < len(p.rows) && strings.HasPrefix(p.rows[i].CKey, prefix); i++ {
		out = append(out, backend.Row{
			CKey:  p.rows[i].CKey,
			Value: append([]byte(nil), p.rows[i].Value...),
		})
	}
	return out
}

// Delete removes a row, reporting whether it existed.
func (s *Store) Delete(table, pkey, ckey string) bool {
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return false
	}
	i, ok := p.find(ckey)
	if !ok {
		return false
	}
	s.stored -= int64(len(p.rows[i].Value) + len(ckey))
	p.rows = append(p.rows[:i], p.rows[i+1:]...)
	return true
}

// DropPartition removes an entire partition.
func (s *Store) DropPartition(table, pkey string) {
	t, ok := s.tables[table]
	if !ok {
		return
	}
	p, ok := t[pkey]
	if !ok {
		return
	}
	for _, r := range p.rows {
		s.stored -= int64(len(r.Value) + len(r.CKey))
	}
	delete(t, pkey)
}

// Tables returns the sorted table names holding at least one partition.
func (s *Store) Tables() []string {
	out := make([]string, 0, len(s.tables))
	for t := range s.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// PartitionKeys returns the sorted partition keys of a table.
func (s *Store) PartitionKeys(table string) []string {
	t, ok := s.tables[table]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(t))
	for pk := range t {
		out = append(out, pk)
	}
	sort.Strings(out)
	return out
}

// StoredBytes returns the logical live bytes held by this engine.
func (s *Store) StoredBytes() int64 { return s.stored }

// Flush is a no-op: memory has nothing to sync.
func (s *Store) Flush() error { return nil }

// Close is a no-op.
func (s *Store) Close() error { return nil }
