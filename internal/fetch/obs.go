package fetch

import "hgs/internal/obs"

// RegisterObs registers the decoded-part cache counters into r as
// func-backed families sampled at exposition/snapshot time — the same
// numbers CacheStats reports, under stable Prometheus names. A nil
// cache (caching disabled) registers nothing; registering the same
// cache again (a re-attached handle, or several handles sharing one
// DataDir cache) replaces the samplers.
func (c *Cache) RegisterObs(r *obs.Registry) {
	if c == nil || r == nil {
		return
	}
	stat := func(get func(CacheStats) int64) func() float64 {
		return func() float64 { return float64(get(c.Stats())) }
	}
	r.CounterFunc("hgs_cache_hits_total",
		"Positive decoded-part cache answers (a resident part or non-empty group).",
		stat(func(s CacheStats) int64 { return s.Hits }))
	r.CounterFunc("hgs_cache_misses_total",
		"Group and part requests the cache could not answer.",
		stat(func(s CacheStats) int64 { return s.Misses }))
	r.CounterFunc("hgs_cache_negative_hits_total",
		"Authoritative absence answers — each one an absent-row KV read not issued.",
		stat(func(s CacheStats) int64 { return s.NegativeHits }))
	r.CounterFunc("hgs_cache_eventlist_hits_total",
		"Positive answers served from cached boundary micro-eventlists (subset of hits).",
		stat(func(s CacheStats) int64 { return s.EventlistHits }))
	r.CounterFunc("hgs_cache_evictions_total",
		"Entries evicted to stay inside the byte budget.",
		stat(func(s CacheStats) int64 { return s.Evictions }))
	r.CounterFunc("hgs_cache_admissions_total",
		"Entries accepted into the cache.",
		stat(func(s CacheStats) int64 { return s.Admissions }))
	r.CounterFunc("hgs_cache_admission_rejects_total",
		"Entries or parts the admission policy refused.",
		stat(func(s CacheStats) int64 { return s.AdmissionRejects }))
	r.GaugeFunc("hgs_cache_bytes",
		"Bytes currently resident in the cache.",
		stat(func(s CacheStats) int64 { return s.Bytes }))
	r.GaugeFunc("hgs_cache_protected_bytes",
		"Bytes in the protected (scan-resistant) segment.",
		stat(func(s CacheStats) int64 { return s.ProtectedBytes }))
	r.GaugeFunc("hgs_cache_max_bytes",
		"Configured cache byte budget.",
		stat(func(s CacheStats) int64 { return s.MaxBytes }))
	r.GaugeFunc("hgs_cache_entries",
		"Entries currently resident in the cache.",
		stat(func(s CacheStats) int64 { return int64(s.Entries) }))
	r.GaugeFunc("hgs_cache_protected_share",
		"Adaptive protected-segment share of the byte budget.",
		func() float64 { return c.Stats().ProtectedShare })
}
