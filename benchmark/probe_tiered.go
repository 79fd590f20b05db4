package main

import (
	"os"

	"hgs/internal/backend/tiered"
)

// probeTiered times the tiered engine's write path (WAL append plus hot
// memtable insert) and a read served from the hot tier, in a scratch
// directory under dir. The harvest fits the default hot budget, so nothing
// is flushed cold during the probe.
func probeTiered(dir string, h *harvest, m metrics) error {
	tmp, err := os.MkdirTemp(dir, "probe-tiered-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	be, err := tiered.Open(tmp, tiered.Options{})
	if err != nil {
		return err
	}
	c, err := probeEngine(be, h.all())
	m["backend.tiered.put_ns"] = c.putNs
	m["backend.tiered.get_hot_ns"] = c.getNs
	if cerr := be.Close(); err == nil {
		err = cerr
	}
	return err
}
