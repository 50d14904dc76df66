package oracle

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/hopset"
	"repro/internal/lru"
)

// LatencySnapshot is the per-route latency summary exposed by Stats (the
// shared internal/hist shape: count, mean, p50/p90/p99/p999/max in µs).
type LatencySnapshot = hist.Snapshot

// Latency-histogram routes. One fixed-bucket histogram per query surface,
// recorded at the Engine API boundary, so server-side tails are
// observable from /stats without an external load generator attached.
const (
	latDist = iota
	latMulti
	latMatrix
	latNearest
	latPath
	latTree
	numLatRoutes
)

// latRouteNames index the Stats.Latency map; they match the HTTP verb
// that lands on each surface.
var latRouteNames = [numLatRoutes]string{"dist", "multi", "matrix", "nearest", "path", "tree"}

// Engine is a build-once / query-many distance oracle. All methods are
// safe for concurrent use: the hopset and adjacency built by the
// constructor are immutable, per-query scratch is pooled, and concurrent
// queries return bit-identical results to sequential ones (the underlying
// construction and queries are fully deterministic).
//
// Cached results — the slices returned by Dist and MultiSource and the
// Trees returned by Tree — are shared between callers and must be treated
// as read-only.
type Engine struct {
	solver *core.Solver
	n      int
	// memBytes is the resident-size estimate, computed once at
	// construction (the walk over recorded memory paths is O(total path
	// steps) — too slow for per-stats-poll recomputation under locks).
	memBytes int64

	distCache *lru.Cache[int32, []float64]
	treeCache *lru.Cache[int32, *Tree]
	batcher   *distBatcher

	distFlight flight[[]float64]
	treeFlight flight[*Tree]

	// auditG is the audit-time ground-truth graph in input weight units,
	// built lazily by AuditGraph (the hopset's retained graph may carry
	// normalized weights).
	auditOnce sync.Once
	auditG    *graph.Graph

	// lat holds one serve-side latency histogram per query route,
	// recorded on every public query call (hits and misses alike), so
	// the cache-hit floor and the exploration tail are both visible.
	lat [numLatRoutes]hist.Histogram

	distQueries    atomic.Int64
	multiQueries   atomic.Int64
	nearestQueries atomic.Int64
	pathQueries    atomic.Int64
	treeQueries    atomic.Int64
	matrixQueries  atomic.Int64
}

func newEngine(solver *core.Solver, cfg config) *Engine {
	e := &Engine{
		solver:    solver,
		n:         solver.N(),
		distCache: lru.New[int32, []float64](cfg.distCache),
		treeCache: lru.New[int32, *Tree](cfg.treeCache),
	}
	if cfg.batchWindow > 0 {
		e.batcher = newDistBatcher(cfg.batchWindow, solver.ApproxMultiSource, e.distCache.Add)
	}
	e.memBytes = estimateMemoryBytes(solver)
	return e
}

// N returns the number of vertices the engine serves.
func (e *Engine) N() int {
	if e == nil || e.solver == nil {
		return 0
	}
	return e.n
}

// Hopset exposes the underlying hopset (size, schedule, ledger) for
// in-module inspection and verification tooling.
func (e *Engine) Hopset() *hopset.Hopset {
	if e == nil || e.solver == nil {
		return nil
	}
	return e.solver.Hopset()
}

// HopBudget returns the per-query Bellman–Ford round budget (0 on an
// unbuilt engine).
func (e *Engine) HopBudget() int {
	if e == nil || e.solver == nil {
		return 0
	}
	return e.solver.HopBudget()
}

// Solver exposes the wrapped solver, for in-module callers that need the
// lower-level API (e.g. NearestSource reference comparisons in tests).
func (e *Engine) Solver() *core.Solver {
	if e == nil {
		return nil
	}
	return e.solver
}

// MemoryBytes returns the estimated resident size of the engine's
// immutable state: the G ∪ H CSR adjacency (per arc: neighbor, weight,
// tag), the hopset edge list and recorded memory paths, and the graph's
// own edge arrays. Cache contents are excluded — they are bounded by the
// configured LRU capacities and recycled. The Registry evicts cold graphs
// against this estimate. The value is computed once at construction.
func (e *Engine) MemoryBytes() int64 {
	if e == nil || e.solver == nil {
		return 0
	}
	return e.memBytes
}

func estimateMemoryBytes(solver *core.Solver) int64 {
	h := solver.Hopset()
	const (
		arcBytes  = 4 + 8 + 4 // Nbr int32 + Wt float64 + Tag int32
		edgeBytes = 4 + 4 + 8 // U, V int32 + W float64 (graph edge)
		hopBytes  = 32        // hopset.Edge: endpoints, weight, provenance
		stepBytes = 16        // hopset.PathStep
	)
	n := int64(h.G.N)
	arcs := int64(2 * h.G.M()) // graph arcs, both directions
	extra := int64(2 * h.Size())
	bytes := (n + 1) * 4                // CSR offsets
	bytes += (arcs + extra) * arcBytes  // combined adjacency
	bytes += int64(h.G.M()) * edgeBytes // graph edge list
	bytes += int64(h.Size()) * hopBytes // hopset edges
	for _, p := range h.Paths {
		bytes += int64(len(p)) * stepBytes
	}
	return bytes
}

func (e *Engine) ready() error {
	if e == nil || e.solver == nil {
		return ErrNotBuilt
	}
	return nil
}

func (e *Engine) checkVertex(v int32) error {
	if v < 0 || int(v) >= e.n {
		return fmt.Errorf("%w: vertex %d not in [0,%d)", ErrVertexOutOfRange, v, e.n)
	}
	return nil
}

// Dist returns (1+ε)-approximate distances from source to every vertex
// (+Inf for unreachable ones). The vector is served from the LRU cache
// when possible; on a miss it is computed — coalesced with concurrent
// misses when a batch window is configured — and cached. The returned
// slice is shared: do not modify it.
func (e *Engine) Dist(source int32) ([]float64, error) {
	if e == nil {
		return nil, ErrNotBuilt
	}
	start := time.Now()
	d, err := e.dist(source)
	e.lat[latDist].Observe(time.Since(start))
	return d, err
}

func (e *Engine) dist(source int32) ([]float64, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if err := e.checkVertex(source); err != nil {
		return nil, err
	}
	e.distQueries.Add(1)
	if d, ok := e.distCache.Get(source); ok {
		return d, nil
	}
	if e.batcher != nil {
		return e.batcher.enqueue(source)
	}
	return e.distFlight.do(source, func() ([]float64, error) {
		d, err := e.solver.ApproxDistances(source)
		if err != nil {
			return nil, err
		}
		e.distCache.Add(source, d)
		return d, nil
	})
}

// DistTo returns the (1+ε)-approximate distance from source to target
// (+Inf when unreachable).
func (e *Engine) DistTo(source, target int32) (float64, error) {
	if err := e.ready(); err != nil {
		return 0, err
	}
	if err := e.checkVertex(target); err != nil {
		return 0, err
	}
	d, err := e.Dist(source)
	if err != nil {
		return 0, err
	}
	return d[target], nil
}

// MultiSource answers the aMSSD query of Theorem 3.8: row i is the
// (1+ε)-approximate distance vector of sources[i]. Cached rows are reused;
// the remaining sources share one multi-source call whose rows are
// computed concurrently. Rows are shared: do not modify them.
func (e *Engine) MultiSource(sources []int32) ([][]float64, error) {
	if e == nil {
		return nil, ErrNotBuilt
	}
	start := time.Now()
	rows, err := e.multiSource(sources)
	e.lat[latMulti].Observe(time.Since(start))
	return rows, err
}

func (e *Engine) multiSource(sources []int32) ([][]float64, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, ErrNeedSources
	}
	for _, s := range sources {
		if err := e.checkVertex(s); err != nil {
			return nil, err
		}
	}
	e.multiQueries.Add(1)
	out := make([][]float64, len(sources))
	var missing []int32
	// missIdx is allocated lazily: the steady-state all-hit call touches
	// only the cache, keeping the warm path at one allocation (out).
	var missIdx map[int32][]int
	for i, s := range sources {
		if d, ok := e.distCache.Get(s); ok {
			out[i] = d
			continue
		}
		if missIdx == nil {
			missIdx = make(map[int32][]int)
		}
		if len(missIdx[s]) == 0 {
			missing = append(missing, s)
		}
		missIdx[s] = append(missIdx[s], i)
	}
	if len(missing) == 0 {
		return out, nil
	}
	var rows [][]float64
	var err error
	if e.batcher != nil {
		// Coalesce with concurrent Dist/MultiSource misses: the batcher
		// commits rows to the cache itself.
		rows, err = e.batcher.enqueueMany(missing)
	} else {
		rows, err = e.solver.ApproxMultiSource(missing)
	}
	if err != nil {
		return nil, err
	}
	for j, s := range missing {
		if e.batcher == nil {
			e.distCache.Add(s, rows[j])
		}
		for _, i := range missIdx[s] {
			out[i] = rows[j]
		}
	}
	return out, nil
}

// Matrix computes the S×T distance matrix: out[i][j] is the
// (1+ε)-approximate distance from sources[i] to targets[j]. All rows of
// one call run on the word-parallel batched kernel (up to relax.MaxBatch
// sources per graph traversal), bypassing the batching window — a matrix
// call is already a batch. Full rows are served from / committed to the
// distance cache, so a matrix query warms the same cache point queries
// hit. Every entry equals the corresponding DistTo answer bit for bit.
func (e *Engine) Matrix(sources, targets []int32) ([][]float64, error) {
	if e == nil {
		return nil, ErrNotBuilt
	}
	start := time.Now()
	rows, err := e.matrix(sources, targets)
	e.lat[latMatrix].Observe(time.Since(start))
	return rows, err
}

func (e *Engine) matrix(sources, targets []int32) ([][]float64, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if len(sources) == 0 || len(targets) == 0 {
		return nil, ErrNeedSources
	}
	for _, s := range sources {
		if err := e.checkVertex(s); err != nil {
			return nil, err
		}
	}
	for _, t := range targets {
		if err := e.checkVertex(t); err != nil {
			return nil, err
		}
	}
	e.matrixQueries.Add(1)
	full := make([][]float64, len(sources))
	var missing []int32
	var missIdx map[int32][]int // lazy, as in multiSource
	for i, s := range sources {
		if d, ok := e.distCache.Get(s); ok {
			full[i] = d
			continue
		}
		if missIdx == nil {
			missIdx = make(map[int32][]int)
		}
		if len(missIdx[s]) == 0 {
			missing = append(missing, s)
		}
		missIdx[s] = append(missIdx[s], i)
	}
	if len(missing) > 0 {
		rows, err := e.solver.ApproxMultiSource(missing)
		if err != nil {
			return nil, err
		}
		for j, s := range missing {
			e.distCache.Add(s, rows[j])
			for _, i := range missIdx[s] {
				full[i] = rows[j]
			}
		}
	}
	out := make([][]float64, len(sources))
	for i, row := range full {
		out[i] = make([]float64, len(targets))
		for j, t := range targets {
			out[i][j] = row[t]
		}
	}
	return out, nil
}

// Nearest returns, per vertex, the approximate distance to the nearest of
// the given sources, as one joint exploration (never cached — the result
// depends on the whole source set).
func (e *Engine) Nearest(sources []int32) ([]float64, error) {
	if e == nil {
		return nil, ErrNotBuilt
	}
	start := time.Now()
	d, err := e.nearest(sources)
	e.lat[latNearest].Observe(time.Since(start))
	return d, err
}

func (e *Engine) nearest(sources []int32) ([]float64, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, ErrNeedSources
	}
	for _, s := range sources {
		if err := e.checkVertex(s); err != nil {
			return nil, err
		}
	}
	e.nearestQueries.Add(1)
	return e.solver.NearestSource(sources)
}

// NearestWithOffsets is Nearest with a per-source starting cost: the value
// at v approximates min_i offsets[i] + d(sources[i], v), as if a virtual
// super-source were attached to sources[i] by an edge of weight
// offsets[i]. A +Inf offset skips its source. This is the continuation
// primitive the sharded router uses to carry a search across shard
// boundaries; like Nearest, results are never cached (they depend on the
// whole seeded set).
func (e *Engine) NearestWithOffsets(sources []int32, offsets []float64) ([]float64, error) {
	if e == nil {
		return nil, ErrNotBuilt
	}
	start := time.Now()
	d, err := e.nearestWithOffsets(sources, offsets)
	e.lat[latNearest].Observe(time.Since(start))
	return d, err
}

func (e *Engine) nearestWithOffsets(sources []int32, offsets []float64) ([]float64, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, ErrNeedSources
	}
	for _, s := range sources {
		if err := e.checkVertex(s); err != nil {
			return nil, err
		}
	}
	e.nearestQueries.Add(1)
	return e.solver.NearestSourceOffsets(sources, offsets)
}

// Tree returns a (1+ε)-approximate shortest-path tree rooted at source,
// with every tree edge drawn from the original graph (Theorem 4.6).
// Requires WithPathReporting. Trees are cached and shared: read-only.
func (e *Engine) Tree(source int32) (*Tree, error) {
	if e == nil {
		return nil, ErrNotBuilt
	}
	start := time.Now()
	t, err := e.tree(source)
	e.lat[latTree].Observe(time.Since(start))
	return t, err
}

func (e *Engine) tree(source int32) (*Tree, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if !e.solver.PathReporting() {
		return nil, ErrNeedPathReporting
	}
	if err := e.checkVertex(source); err != nil {
		return nil, err
	}
	e.treeQueries.Add(1)
	if t, ok := e.treeCache.Get(source); ok {
		return t, nil
	}
	return e.treeFlight.do(source, func() (*Tree, error) {
		spt, err := e.solver.SPT(source)
		if err != nil {
			return nil, err
		}
		t := &Tree{
			Source:  spt.Source,
			Parent:  spt.Parent,
			ParentW: spt.ParentW,
			Dist:    spt.Dist,
		}
		e.treeCache.Add(source, t)
		return t, nil
	})
}

// Path returns a concrete u–v path in the original graph whose length is
// within (1+ε) of the true distance, together with that length. The path
// is read out of the (cached) shortest-path tree rooted at u; a nil path
// with +Inf length means v is unreachable. Requires WithPathReporting.
func (e *Engine) Path(u, v int32) ([]int32, float64, error) {
	if e == nil {
		return nil, 0, ErrNotBuilt
	}
	start := time.Now()
	p, d, err := e.path(u, v)
	e.lat[latPath].Observe(time.Since(start))
	return p, d, err
}

func (e *Engine) path(u, v int32) ([]int32, float64, error) {
	if err := e.ready(); err != nil {
		return nil, 0, err
	}
	if err := e.checkVertex(v); err != nil {
		return nil, 0, err
	}
	t, err := e.tree(u)
	if err != nil {
		return nil, 0, err
	}
	e.pathQueries.Add(1)
	path := t.PathTo(v)
	if path == nil {
		return nil, math.Inf(1), nil
	}
	return path, t.Dist[v], nil
}

// RelaxStats is the relaxation engine's cumulative per-query accounting:
// how many explorations ran, how many arcs they actually scanned, and how
// the adaptive engine split its rounds between the dense full-scan kernel
// and the frontier-sparse kernel. ArcsPerExploration is the average
// scanned-arc cost of one query-time exploration — the number the
// frontier-sparse engine drives down on low-frontier workloads.
type RelaxStats struct {
	Explorations       int64   `json:"explorations"`
	ScannedArcs        int64   `json:"scanned_arcs"`
	DenseRounds        int64   `json:"dense_rounds"`
	SparseRounds       int64   `json:"sparse_rounds"`
	ArcsPerExploration float64 `json:"arcs_per_exploration"`
	// BatchedSeeds sums the source lanes of batched explorations (one
	// k-lane batch counts as one exploration carrying k seeds); the
	// sequential-equivalent scanned-arc cost of a batch is roughly
	// ScannedArcs · lanes, so this is the audit trail of the batching win.
	BatchedSeeds int64 `json:"batched_seeds"`
}

// Stats is a point-in-time snapshot of the engine's query, cache and
// batching counters.
type Stats struct {
	DistQueries    int64 `json:"dist_queries"`
	MultiQueries   int64 `json:"multi_queries"`
	NearestQueries int64 `json:"nearest_queries"`
	PathQueries    int64 `json:"path_queries"`
	TreeQueries    int64 `json:"tree_queries"`
	MatrixQueries  int64 `json:"matrix_queries"`

	DistCache CacheStats `json:"dist_cache"`
	TreeCache CacheStats `json:"tree_cache"`

	Batches         int64 `json:"batches"`
	BatchedQueries  int64 `json:"batched_queries"`
	LargestBatch    int64 `json:"largest_batch"`
	BatchWindowNano int64 `json:"batch_window_ns"`
	// BatchWaitNano is the total time coalesced queries spent parked in
	// the batching window before their batch ran — the latency price paid
	// for the shared traversals.
	BatchWaitNano int64 `json:"batch_wait_ns"`
	// BatchOccupancy is a histogram of distinct sources per flushed batch,
	// buckets 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64. Mass in the high buckets
	// means the window is actually coalescing.
	BatchOccupancy []int64 `json:"batch_occupancy,omitempty"`

	// Latency maps each query route ("dist", "multi", "matrix",
	// "nearest", "path", "tree") to its serve-side latency summary —
	// fixed-bucket histograms recorded at the API boundary, so p50/p99
	// tails are observable from /stats without a load generator
	// attached. Routes that never served a query are omitted.
	Latency map[string]LatencySnapshot `json:"latency,omitempty"`

	Relax RelaxStats `json:"relax"`

	// Sharded is set only by sharded backends (package shard): partition
	// shape, overlay size, router traffic split, and the composed stretch
	// bound. Monolithic engines leave it nil.
	Sharded *ShardStats `json:"sharded,omitempty"`
}

// Stats returns the engine's counters. Safe on a nil engine.
func (e *Engine) Stats() Stats {
	if e == nil || e.solver == nil {
		return Stats{}
	}
	st := Stats{
		DistQueries:    e.distQueries.Load(),
		MultiQueries:   e.multiQueries.Load(),
		NearestQueries: e.nearestQueries.Load(),
		PathQueries:    e.pathQueries.Load(),
		TreeQueries:    e.treeQueries.Load(),
		MatrixQueries:  e.matrixQueries.Load(),
		DistCache:      e.distCache.Snapshot(),
		TreeCache:      e.treeCache.Snapshot(),
	}
	rs := e.solver.RelaxStats()
	st.Relax = RelaxStats{
		Explorations: rs.Explorations,
		ScannedArcs:  rs.ScannedArcs,
		DenseRounds:  rs.DenseRounds,
		SparseRounds: rs.SparseRounds,
		BatchedSeeds: rs.BatchedSeeds,
	}
	if rs.Explorations > 0 {
		st.Relax.ArcsPerExploration = float64(rs.ScannedArcs) / float64(rs.Explorations)
	}
	for i := range e.lat {
		if snap := e.lat[i].Snapshot(); snap.Count > 0 {
			if st.Latency == nil {
				st.Latency = make(map[string]LatencySnapshot, numLatRoutes)
			}
			st.Latency[latRouteNames[i]] = snap
		}
	}
	if e.batcher != nil {
		st.Batches = e.batcher.batches.Load()
		st.BatchedQueries = e.batcher.batched.Load()
		st.LargestBatch = e.batcher.maxBatch.Load()
		st.BatchWindowNano = int64(e.batcher.window)
		st.BatchWaitNano = e.batcher.waitNano.Load()
		st.BatchOccupancy = e.batcher.occupancySnapshot()
	}
	return st
}

// scannedArcs reads the cumulative scanned-arc counter (a handful of
// atomic loads) — cheap enough to bracket a single query for tracing.
// Safe on a nil engine, returning 0.
func (e *Engine) scannedArcs() int64 {
	if e == nil || e.solver == nil {
		return 0
	}
	return e.solver.RelaxStats().ScannedArcs
}

// Tree is a (1+ε)-approximate shortest-path tree whose edges all belong
// to the original graph. Instances returned by Engine.Tree are cached and
// shared between callers: treat every field as read-only.
type Tree struct {
	Source int32
	// Parent[v] is v's tree parent (-1 at the source and at unreachable
	// vertices); (Parent[v], v) is always an edge of the original graph.
	Parent []int32
	// ParentW[v] is the weight of the parent edge, in input units.
	ParentW []float64
	// Dist[v] is the exact distance from Source to v inside the tree
	// (+Inf when unreachable); it is (1+ε)-approximate vs the graph.
	Dist []float64
}

// PathTo returns the tree path from the source to v (nil if unreachable).
// Two passes — measure, then fill backwards — so the path is exactly one
// allocation regardless of depth (it is on the warm serve path: the tree
// is cached, the path slice is the only per-query memory).
func (t *Tree) PathTo(v int32) []int32 {
	if math.IsInf(t.Dist[v], 1) {
		return nil
	}
	depth := 1
	for cur := v; cur != t.Source; cur = t.Parent[cur] {
		depth++
		if depth > len(t.Parent)+1 {
			return nil
		}
	}
	path := make([]int32, depth)
	for i, cur := depth-1, v; i >= 0; i, cur = i-1, t.Parent[cur] {
		path[i] = cur
	}
	return path
}
