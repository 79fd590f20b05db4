package main

import (
	"hgs/internal/codec"
	"hgs/internal/delta"
	"hgs/internal/graph"
)

// decoded is the harvest after the codec: what the layers above it see.
type decoded struct {
	deltas []*delta.Delta
	events [][]graph.Event
}

// probeCodec times the four codec calls on the harvested blobs and returns
// the decoded payloads for the probes of the layers above.
func probeCodec(h *harvest, m metrics) (*decoded, error) {
	var cdc codec.Codec
	d := &decoded{}
	kb := func(rows []row) float64 {
		n := 0
		for _, r := range rows {
			n += len(r.value)
		}
		return float64(n) / 1024
	}
	for _, r := range h.deltas {
		x, err := cdc.DecodeDelta(r.value)
		if err != nil {
			return nil, err
		}
		d.deltas = append(d.deltas, x)
	}
	for _, r := range h.events {
		x, err := cdc.DecodeEvents(r.value)
		if err != nil {
			return nil, err
		}
		d.events = append(d.events, x)
	}
	// One call of each loop body walks the whole harvest.
	iters := func(n int) int { return minProbeIters/max(n, 1) + 1 }
	if k := kb(h.deltas); k > 0 {
		ns, allocs := perCall(iters(len(h.deltas)), func() {
			for _, r := range h.deltas {
				cdc.DecodeDelta(r.value)
			}
		})
		m["codec.decode_delta_ns_per_kb"] = ns / k
		m["codec.decode_allocs_per_kb"] = allocs / k
		ns, _ = perCall(iters(len(d.deltas)), func() {
			for _, x := range d.deltas {
				cdc.EncodeDelta(x)
			}
		})
		m["codec.encode_delta_ns_per_kb"] = ns / k
	}
	if k := kb(h.events); k > 0 {
		ns, _ := perCall(iters(len(h.events)), func() {
			for _, r := range h.events {
				cdc.DecodeEvents(r.value)
			}
		})
		m["codec.decode_events_ns_per_kb"] = ns / k
		ns, _ = perCall(iters(len(d.events)), func() {
			for _, x := range d.events {
				cdc.EncodeEvents(x)
			}
		})
		m["codec.encode_events_ns_per_kb"] = ns / k
	}
	return d, nil
}
