package core

import (
	"sync"

	"panda/internal/storage"
)

// planKey identifies one array's schema-derived plan on this server.
// Everything the plan depends on is in the key: the schemas and element
// size (fingerprinted), the array's index in the request (baked into
// each subchunkJob), the deployment shape, the sub-chunk limit, and the
// set of dead servers (reassignment moves chunks between survivors).
type planKey struct {
	name          string
	fp            uint32
	arrayIdx      int
	numServers    int
	subchunkBytes int64
	deads         uint64 // bitmask over server indexes
	topo          uint32 // topology fingerprint: plans are ordered per topology
}

// planEntry is one cached plan. jobs and subs are shared across hits
// and never mutated downstream.
type planEntry struct {
	jobs  []Placement
	subs  []subchunkJob
	bytes int64
}

// planCacheSize bounds a node's plan cache, in entries: reaching it
// restarts the cache rather than evicting.
const planCacheSize = 64

// planCache is one node's memo of schema-derived plans. Each entry holds
// one array's chunk assignment and sub-chunk schedule, so an iterating
// workload — a Timestep loop writing the same arrays every step — plans
// once, for both directions: a read of a file whose manifest lists
// exactly the schema-derived assignment uses the entry its write made
// (planForManifest). Executors of concurrent operations share it, hence
// the mutex.
type planCache struct {
	mu sync.Mutex
	// epoch is the membership epoch of the newest request seen; when it
	// moves the cache is dropped outright (the alive set changed, so
	// memoized chunk assignments are suspect even beyond what the per-key
	// deads mask captures).
	epoch   uint32
	entries map[planKey]planEntry
}

func (pc *planCache) get(k planKey) (planEntry, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[k]
	return e, ok
}

func (pc *planCache) put(k planKey, e planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.entries == nil || len(pc.entries) >= planCacheSize {
		pc.entries = make(map[planKey]planEntry)
	}
	pc.entries[k] = e
}

// reset drops every entry: the alive set changed under a replan.
func (pc *planCache) reset() {
	pc.mu.Lock()
	pc.entries = nil
	pc.mu.Unlock()
}

// seeEpoch records the membership epoch a request was dispatched under
// (0 = fixed membership) and drops the cache when it moved.
func (pc *planCache) seeEpoch(epoch uint32) {
	pc.mu.Lock()
	if epoch != 0 && epoch != pc.epoch {
		pc.epoch = epoch
		pc.entries = nil
	}
	pc.mu.Unlock()
}

// planFor resolves one array's plan, consulting the cache. A hit reuses
// the chunk assignment and sub-chunk schedule of an identical earlier
// operation; everything the plan depends on is in the key, so a reused
// plan is byte-identical to a recomputed one.
func (s *Server) planFor(ai int, spec ArraySpec, dead map[int]bool) ([]Placement, []subchunkJob, int64) {
	key, cacheable := s.planKeyFor(ai, spec, dead)
	if cacheable {
		if e, ok := s.plans.get(key); ok {
			s.cnt[cPlanHits].Add(1)
			return e.jobs, e.subs, e.bytes
		}
	}
	jobs := shareOf(PlaceChunks(spec, s.cfg.NumServers, dead), s.index)
	subs := s.orderPlan(planSubchunks(ai, spec, jobs, spec.subchunkBytes(s.cfg)))
	planned := planBytes(subs)
	if cacheable {
		s.cnt[cPlanMisses].Add(1)
		s.plans.put(key, planEntry{jobs: jobs, subs: subs, bytes: planned})
	}
	return jobs, subs, planned
}

// planForManifest resolves the plan for reading the committed file
// manifest m describes. A file written by a full house holds exactly
// the chunks planFor(ai, spec, nil) assigns this server — buildManifest
// wrote the list from those very jobs — so when the list equals the
// assignment the read is served from the write's cache entry: an
// iterating checkpoint/restart loop plans once for both directions. A
// list that differs — a degraded epoch, whose file carries chunks
// adopted from dead servers, or a file written under another deployment
// shape — is validated against the schema and planned from the list,
// uncached: it describes one file's contents, not the schemas.
func (s *Server) planForManifest(ai int, spec ArraySpec, m *storage.Manifest) ([]subchunkJob, int64, error) {
	if !m.Degraded {
		if jobs, subs, planned := s.planFor(ai, spec, nil); sameChunkList(m, jobs, planned) {
			return subs, planned, nil
		}
	}
	chunks, err := chunksFromManifest(spec, m, s.index)
	if err != nil {
		return nil, 0, err
	}
	subs := s.orderPlan(planSubchunks(ai, spec, chunks, spec.subchunkBytes(s.cfg)))
	return subs, planBytes(subs), nil
}

// planBytes is the payload a plan moves.
func planBytes(subs []subchunkJob) (n int64) {
	for _, sj := range subs {
		n += sj.Bytes
	}
	return n
}

// planKeyFor builds the cache key for one array, reporting false when
// the plan is not cacheable (the deployment is too large for the
// alive-set bitmask).
func (s *Server) planKeyFor(ai int, spec ArraySpec, dead map[int]bool) (planKey, bool) {
	if s.cfg.NumServers > 64 {
		return planKey{}, false
	}
	var mask uint64
	for d := range dead {
		mask |= 1 << uint(d)
	}
	return planKey{
		name:          spec.Name,
		fp:            planFingerprint(spec),
		arrayIdx:      ai,
		numServers:    s.cfg.NumServers,
		subchunkBytes: spec.subchunkBytes(s.cfg),
		deads:         mask,
		topo:          s.cfg.Topology.Fingerprint(),
	}, true
}
