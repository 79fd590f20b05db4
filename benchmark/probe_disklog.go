package main

import (
	"os"

	"hgs/internal/backend/disklog"
)

// probeDisklog times the disk engine on the harvested rows in a scratch
// directory under dir. Reads come back from the OS page cache and fsync is
// cheap here: the numbers are this sandbox's, not a device's.
func probeDisklog(dir string, h *harvest, m metrics) error {
	tmp, err := os.MkdirTemp(dir, "probe-disklog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	be, err := disklog.Open(tmp, disklog.Options{})
	if err != nil {
		return err
	}
	c, err := probeEngine(be, h.all())
	m["backend.disklog.put_ns"] = c.putNs
	m["backend.disklog.get_ns"] = c.getNs
	m["backend.disklog.batch_get_ns_per_key"] = c.batchGetNsPerKey
	if cerr := be.Close(); err == nil {
		err = cerr
	}
	return err
}
