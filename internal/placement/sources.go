package placement

import (
	"strconv"

	"fragdb/internal/fragments"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/obs"
)

// FromRegistry snapshots a labeled metrics registry's cumulative
// per-(fragment, origin) read/write counters as an access matrix.
func FromRegistry(reg *metrics.Registry) Matrix {
	m := make(Matrix)
	for _, s := range reg.Reads.Samples() {
		if s.Frag == "" {
			continue
		}
		k := Key{Frag: s.Frag, Node: s.Node}
		c := m[k]
		c.Reads = float64(s.Value)
		m[k] = c
	}
	for _, s := range reg.Writes.Samples() {
		if s.Frag == "" {
			continue
		}
		k := Key{Frag: s.Frag, Node: s.Node}
		c := m[k]
		c.Writes = float64(s.Value)
		m[k] = c
	}
	return m
}

// ScrapeSource accumulates a rate matrix from successive /metrics
// scrapes of several cluster processes. Each target's page is diffed
// against that same target's previous page (obs.CounterRates), so a
// migrated agent's old home — whose counters freeze but persist —
// contributes zero rate, and a restarted process (counters reset)
// clamps to zero instead of going negative. The per-target rates are
// then summed: each process only increments cells for operations it
// executed, so the sum is the cluster-wide rate matrix.
type ScrapeSource struct {
	prev map[string]obs.Metrics
}

// NewScrapeSource builds an empty scrape-diffing source.
func NewScrapeSource() *ScrapeSource {
	return &ScrapeSource{prev: make(map[string]obs.Metrics)}
}

// Observe folds one round of scraped pages (keyed by target address)
// taken dtSeconds after the previous round into a rate matrix. The
// first round for a target only seeds its baseline. Targets that
// failed to scrape this round should be absent from pages; their
// baseline is kept for the next successful scrape.
func (s *ScrapeSource) Observe(pages map[string]obs.Metrics, dtSeconds float64) map[Key]Rate {
	inst := make(map[Key]Rate)
	for target, page := range pages {
		prev, ok := s.prev[target]
		s.prev[target] = page
		if !ok || dtSeconds <= 0 {
			continue
		}
		rated := obs.CounterRates(prev, page, dtSeconds)
		rated.Each("fragdb_"+metrics.FamFragReads, func(sm obs.Sample) {
			k, ok := sampleKey(sm)
			if !ok {
				return
			}
			r := inst[k]
			r.Reads += sm.Value
			inst[k] = r
		})
		rated.Each("fragdb_"+metrics.FamFragWrites, func(sm obs.Sample) {
			k, ok := sampleKey(sm)
			if !ok {
				return
			}
			r := inst[k]
			r.Writes += sm.Value
			inst[k] = r
		})
	}
	return inst
}

// sampleKey extracts the (fragment, origin-node) matrix key from a
// scraped sample's labels.
func sampleKey(s obs.Sample) (Key, bool) {
	frag := s.Labels["frag"]
	if frag == "" {
		return Key{}, false
	}
	node, err := strconv.Atoi(s.Labels["node"])
	if err != nil {
		return Key{}, false
	}
	return Key{Frag: fragments.FragmentID(frag), Node: netsim.NodeID(node)}, true
}
