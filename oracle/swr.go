package oracle

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// hotKey identifies one hot-pair row: a graph name and a source vertex.
// Rows, not (source, target) scalars, are the natural unit here — one
// row answers every target for its source, so Zipf-popular sources
// amortize across all their targets.
type hotKey struct {
	name   string
	source int32
}

// hotEntry is one cached distance row, tagged with the engine version
// that produced it. The slice is shared with the engine's own cache and
// treated as immutable everywhere.
type hotEntry struct {
	dist    []float64
	version int64
}

// maxReval bounds concurrent background revalidations; beyond it, stale
// hits are still served but revalidation waits for the next stale hit.
const maxReval = 32

// HotPairStats is the hot-pair cache's counter snapshot.
type HotPairStats struct {
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`
	StaleHits     int64 `json:"stale_hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Revalidations int64 `json:"revalidations"`
}

// hotStats derives the hot-pair counters from the cache's own LRU stats:
// every stale hit is also an LRU hit, so fresh hits are the difference.
// Stale hits are read first — a stale hit bumps the LRU hit count before
// its own counter — so the difference never goes negative.
func (r *Registry) hotStats() HotPairStats {
	stale := r.staleHits.Load()
	st := r.hot.Snapshot()
	return HotPairStats{
		Entries:       st.Len,
		Hits:          st.Hits - stale,
		StaleHits:     stale,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Revalidations: r.revalidations.Load(),
	}
}

// purgeHot drops every hot row of one graph. Remove and eviction call it
// after clearing the graph's handle, so no fill can re-insert a row behind
// it (see fillHot).
func (r *Registry) purgeHot(name string) {
	r.hot.DeleteFunc(func(k hotKey) bool { return k.name == name })
}

// fillHot caches a row computed through h, but only while h is still the
// graph's current handle: the check and the insert run under e.mu, which
// every publish, eviction and removal also holds. An accepted row thus
// always carries the current version, so an older version can never
// clobber a newer row, and a fill that loses a race with an eviction or
// removal is dropped instead of outliving the purge.
func (r *Registry) fillHot(e *graphEntry, h *Handle, source int32, dist []float64) {
	e.mu.Lock()
	if e.handle == h {
		r.hot.Add(hotKey{e.name, source}, hotEntry{dist: dist, version: h.Version()})
	}
	e.mu.Unlock()
}

// tryClaimReval registers a background revalidation for k, refusing
// duplicates (singleflight) and respecting the global bound.
func (r *Registry) tryClaimReval(k hotKey) bool {
	r.revalMu.Lock()
	defer r.revalMu.Unlock()
	if len(r.reval) >= maxReval {
		return false
	}
	if _, dup := r.reval[k]; dup {
		return false
	}
	r.reval[k] = struct{}{}
	return true
}

func (r *Registry) releaseReval(k hotKey) {
	r.revalMu.Lock()
	delete(r.reval, k)
	r.revalMu.Unlock()
}

// SWRResult is one stale-while-revalidate answer: a full distance row,
// the engine version that produced it, and whether that version predates
// the graph's current one. Every value in one result comes from the one
// immutable engine identified by Version — versions are never mixed
// within a response, which is why SWR is offered only for single-source
// surfaces (a multi-source answer assembled from cached rows could
// otherwise straddle a reload).
type SWRResult struct {
	Dist    []float64
	Version int64
	Stale   bool
}

// DistSWR serves Engine.Dist through the hot-pair cache with
// stale-while-revalidate semantics:
//
//   - fresh hit — the cached row's version matches the graph's current
//     version: answered with one LRU lookup and an atomic version load,
//     no handle acquired, no registry or entry mutex taken;
//   - stale hit — the row predates the current version (a hot reload
//     published a newer engine): the old row is served immediately,
//     tagged Stale, and a bounded background revalidation recomputes it
//     on the current engine so a subsequent query turns fresh. While a
//     reload builds, the old rows keep answering — tail latency is
//     bounded by the cache, not the build. Eviction and removal purge a
//     graph's rows with its engine, so they never serve stale;
//   - miss — the row is computed synchronously through a pinned handle
//     (exactly Registry.Dist) and cached only if that handle is still
//     the graph's current one (fillHot).
//
// Callers that must never observe stale data should use Registry.Dist,
// whose semantics are unchanged. With the hot-pair cache disabled,
// DistSWR degrades to exactly that.
func (r *Registry) DistSWR(name string, source int32) (SWRResult, error) {
	return r.DistSWRContext(context.Background(), name, source)
}

// DistSWRContext is DistSWR with a request context: cancellation and the
// active trace span (if any) flow into context-aware backends, and the
// span — when one rides in ctx — is annotated with the cache
// disposition, serving version, and (for monolithic engines on the miss
// path) the scanned-arc cost of the exploration. The fresh-hit fast path
// adds no allocations.
func (r *Registry) DistSWRContext(ctx context.Context, name string, source int32) (SWRResult, error) {
	sp := obs.FromContext(ctx)
	if sp.Active() {
		sp.Source = int64(source)
	}
	if r.hot == nil {
		h, err := r.Acquire(name)
		if err != nil {
			return SWRResult{}, err
		}
		defer h.Release()
		d, err := r.backendDist(ctx, sp, h, source)
		if err != nil {
			return SWRResult{}, err
		}
		r.auditDist(ctx, name, h, source, d)
		return SWRResult{Dist: d, Version: h.Version()}, nil
	}

	e, err := r.lookup(name)
	if err != nil {
		return SWRResult{}, err
	}
	row, ok := r.hot.Get(hotKey{name, source})
	if ok {
		dist, ver := row.dist, row.version
		if ver == e.curVer.Load() {
			e.lastUsed.Store(r.clock.Add(1))
			e.queries.Add(1)
			r.queries.Add(1)
			if sp.Active() {
				sp.SWR = "fresh"
				sp.Version = ver
			}
			return SWRResult{Dist: dist, Version: ver}, nil
		}
		// The row predates the current version: serve it stale and warm
		// the current engine off the request path.
		r.staleHits.Add(1)
		e.lastUsed.Store(r.clock.Add(1))
		e.queries.Add(1)
		r.queries.Add(1)
		r.spawnRevalidate(e, source)
		if sp.Active() {
			sp.SWR = "stale"
			sp.Version = ver
		}
		return SWRResult{Dist: dist, Version: ver, Stale: true}, nil
	}

	// Miss: compute through a pinned handle. If the graph is evicted the
	// Acquire both reports not-ready and enqueues the rebuild (eviction
	// purged the graph's rows, so there is nothing stale to serve).
	if sp.Active() {
		sp.SWR = "miss"
	}
	h, err := r.Acquire(name)
	if err != nil {
		return SWRResult{}, err
	}
	defer h.Release()
	d, err := r.backendDist(ctx, sp, h, source)
	if err != nil {
		return SWRResult{}, err
	}
	r.fillHot(e, h, source, d)
	// Audit on the fill path only: cache hits re-serve bits that were
	// sampled when the row was computed, so re-auditing them would burn
	// exact recomputations on already-checked answers (stale hits are
	// instead accounted by the SLO stale-serve rate).
	r.auditDist(ctx, name, h, source, d)
	return SWRResult{Dist: d, Version: h.Version()}, nil
}

// backendDist runs one dist computation through a pinned handle,
// annotating an active span with the serving version and — for
// monolithic engines — the scanned-arc delta of the exploration. The
// delta is read from the engine's process-wide counter, so concurrent
// queries can inflate an individual span's value; it is a tracing
// attribute, not an accounting invariant.
func (r *Registry) backendDist(ctx context.Context, sp *obs.Span, h *Handle, source int32) ([]float64, error) {
	be := h.Engine()
	if !sp.Active() {
		return distVia(ctx, be, source)
	}
	sp.Version = h.Version()
	eng, _ := be.(*Engine)
	before := eng.scannedArcs()
	d, err := distVia(ctx, be, source)
	if eng != nil {
		sp.ScannedArcs += eng.scannedArcs() - before
	}
	sp.SetError(err)
	return d, err
}

// DistToSWR is DistSWR for a single (source, target) scalar; it shares
// rows — and therefore hits — with DistSWR.
func (r *Registry) DistToSWR(name string, source, target int32) (float64, int64, bool, error) {
	return r.DistToSWRContext(context.Background(), name, source, target)
}

// DistToSWRContext is DistToSWR with a request context.
func (r *Registry) DistToSWRContext(ctx context.Context, name string, source, target int32) (float64, int64, bool, error) {
	res, err := r.DistSWRContext(ctx, name, source)
	if err != nil {
		return 0, 0, false, err
	}
	if target < 0 || int(target) >= len(res.Dist) {
		return 0, 0, false, fmt.Errorf("%w: vertex %d not in [0,%d)", ErrVertexOutOfRange, target, len(res.Dist))
	}
	return res.Dist[target], res.Version, res.Stale, nil
}

// spawnRevalidate recomputes one row on the graph's current engine in
// the background: singleflight per key, bounded globally (maxReval), and
// registered with the registry's shutdown WaitGroup so Close drains
// revalidations exactly like builds. A not-ready graph ends the attempt
// — the Acquire already enqueued its rebuild, and the next stale hit
// retries.
func (r *Registry) spawnRevalidate(e *graphEntry, source int32) {
	k := hotKey{e.name, source}
	if !r.tryClaimReval(k) {
		return
	}
	r.buildMu.Lock()
	if r.noBuilds {
		r.buildMu.Unlock()
		r.releaseReval(k)
		return
	}
	r.wg.Add(1)
	r.buildMu.Unlock()
	go func() {
		defer r.wg.Done()
		defer r.releaseReval(k)
		h, err := r.Acquire(e.name)
		if err != nil {
			return
		}
		defer h.Release()
		d, err := h.Engine().Dist(source)
		if err != nil {
			return
		}
		r.fillHot(e, h, source, d)
		r.revalidations.Add(1)
	}()
}
