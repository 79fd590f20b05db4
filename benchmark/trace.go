package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the benchmark itself, around its calls into the
// program: workload -> op -> child. They live in memory during the run and
// are written to out/trace-<workload>.json when it ends.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the workload span
	Op     int    `json:"op"`     // shared by every span of one op
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder collects spans; a nil recorder records nothing, so untraced
// runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its id (0 from a nil recorder).
func (r *recorder) begin(parent, op int, name string) int {
	return r.beginAt(parent, op, name, time.Now())
}

func (r *recorder) end(id int) { r.endAt(id, time.Now()) }

// beginAt and endAt place a span whose call was timed before it could be
// opened (an HTTP round trip made by a client goroutine).
func (r *recorder) beginAt(parent, op int, name string, at time.Time) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: at.Sub(r.t0).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) endAt(id int, at time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = at.Sub(r.t0).Nanoseconds()
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, upTo := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfMsByName sums self time per span name, in milliseconds.
func selfMsByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for id, ns := range selfTimes(spans) {
		out[spans[id-1].Name] += float64(ns) / 1e6
	}
	return out
}

// durationsMs returns the durations of every span with the name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	blob, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfMs: selfMsByName(spans), Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
