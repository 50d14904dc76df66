// Package shard serves one logical graph as K vertex-disjoint shards
// stitched through a boundary overlay — the first architecture layer that
// decouples servable graph size from a single engine's memory footprint.
//
// A shard.Oracle is built in three deterministic steps:
//
//  1. internal/partition splits the graph into K BFS-grown regions with
//     bit-identical tie-breaking (K explicit, or derived from a per-shard
//     memory target);
//  2. one oracle.Engine is built per shard subgraph on a bounded build
//     pool, then a compact overlay graph is laid over the boundary
//     vertices: every cut edge keeps its exact weight, and every
//     boundary pair inside one shard gets an edge weighted by the
//     shard-local (1+ε_local) distance (one Engine.MultiSource call per
//     shard); the overlay gets its own engine at ε_overlay;
//  3. queries route source-shard → overlay → destination-shards using
//     offset-seeded explorations (Engine.NearestWithOffsets), so a
//     search enters each shard with the cost already paid to reach its
//     boundary.
//
// End-to-end stretch composes multiplicatively —
//
//	(1+ε_local) · (1+ε_overlay) · (1+ε_local)
//
// (source leg, overlay, destination leg) — and is surfaced in
// Stats().Sharded.StretchBound. Stitched Path answers expand overlay hops
// through per-shard trees, which costs one more (1+ε_overlay)(1+ε_local)
// factor in the worst case; the returned length is always the exact
// length of the concrete returned path.
//
// Every answer is deterministic: the partitioner, every engine build, the
// overlay construction, and the router's fixed-order merges are all
// worker-count independent, and a K=1 Oracle answers bit-identically to
// the monolithic engine over the same graph.
//
// shard.Oracle implements oracle.Backend, so the Registry (and therefore
// cmd/serve's HTTP API) serves sharded and monolithic graphs through the
// same Handle lifecycle: background builds, hot reload, eviction.
package shard

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/lru"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/oracle"
)

// pruneLimit bounds the per-shard boundary size the O(B³) overlay
// dominated-pair prune is applied to; larger boundaries keep the complete
// pair set (and such shards — expanders — are poor sharding inputs to
// begin with).
const pruneLimit = 512

// Config shapes a sharded build. The zero value builds a single shard at
// the oracle defaults.
type Config struct {
	// K is the explicit shard count. 0 derives it from TargetBytes via
	// partition.KForTarget; if that is also 0, K = 1.
	K int
	// TargetBytes is the per-shard engine memory target used when K = 0.
	TargetBytes int64
	// EpsilonLocal is the per-shard engine stretch (default 0.25);
	// EpsilonOverlay the overlay engine's (default: EpsilonLocal).
	EpsilonLocal   float64
	EpsilonOverlay float64
	// Kappa overrides κ for every engine built (0 = the oracle default).
	// Shard subgraphs have smaller diameters than the whole graph, so a
	// larger κ — smaller hopsets, larger hopbound — is usually the right
	// trade once memory is the reason to shard at all.
	Kappa int
	// PathReporting enables stitched Path queries (every shard engine and
	// the overlay engine record memory paths).
	PathReporting bool
	// BuildParallel bounds how many shard engines build at once inside
	// one Build call (each build parallelizes internally on the
	// internal/par pool). 0 = max(1, par.Workers()/2) — the same
	// oversubscription discipline as the registry's build pool, which a
	// sharded build occupies exactly one slot of.
	BuildParallel int
	// DistCache is the router's per-source LRU capacity for assembled
	// global distance vectors (0 = 128; negative disables).
	DistCache int
}

func (cfg *Config) fill() {
	if cfg.EpsilonLocal <= 0 {
		cfg.EpsilonLocal = 0.25
	}
	if cfg.EpsilonOverlay <= 0 {
		cfg.EpsilonOverlay = cfg.EpsilonLocal
	}
	if cfg.BuildParallel <= 0 {
		cfg.BuildParallel = par.Workers() / 2
		if cfg.BuildParallel < 1 {
			cfg.BuildParallel = 1
		}
	}
	if cfg.DistCache == 0 {
		cfg.DistCache = 128
	}
}

// legEngine is the per-shard query surface the router stitches over: the
// exact method set the routing, overlay-construction, and path-stitching
// code uses on one shard. *oracle.Engine satisfies it in-process; a
// replicaSet (hedged RemoteBackends over one shard's worker endpoints)
// satisfies it across processes. Every method is deterministic on both
// sides — the same bits come back whether the leg ran locally or over the
// wire — which is what makes the distributed router's answers
// bit-identical to the in-process Oracle's.
type legEngine interface {
	Dist(ctx context.Context, source int32) ([]float64, error)
	MultiSource(ctx context.Context, sources []int32) ([][]float64, error)
	Nearest(ctx context.Context, sources []int32) ([]float64, error)
	NearestWithOffsets(ctx context.Context, sources []int32, offsets []float64) ([]float64, error)
	Path(ctx context.Context, u, v int32) ([]int32, float64, error)
	MemoryBytes() int64
	Describe() oracle.BackendInfo
	Stats() oracle.Stats
}

// localLeg adapts the context-free monolithic engine to the legEngine
// surface. The context is deliberately dropped: a local leg is pure CPU
// with no cancellation points, and keeping *oracle.Engine context-free
// keeps its warm path allocation-free. Remote legs (replicaSet) are
// where the context carries cancellation and trace propagation.
type localLeg struct{ *oracle.Engine }

func (l localLeg) Dist(_ context.Context, source int32) ([]float64, error) {
	return l.Engine.Dist(source)
}

func (l localLeg) MultiSource(_ context.Context, sources []int32) ([][]float64, error) {
	return l.Engine.MultiSource(sources)
}

func (l localLeg) Nearest(_ context.Context, sources []int32) ([]float64, error) {
	return l.Engine.Nearest(sources)
}

func (l localLeg) NearestWithOffsets(_ context.Context, sources []int32, offsets []float64) ([]float64, error) {
	return l.Engine.NearestWithOffsets(sources, offsets)
}

func (l localLeg) Path(_ context.Context, u, v int32) ([]int32, float64, error) {
	return l.Engine.Path(u, v)
}

// shardState is one resident shard: its engine (local or remote) and the
// local↔global and local↔overlay index maps the router stitches with.
type shardState struct {
	eng      legEngine
	vertices []int32 // local -> global, ascending
	// boundaryLocal / boundaryOv are parallel: boundary vertex j of this
	// shard has local ID boundaryLocal[j] and overlay ID boundaryOv[j].
	boundaryLocal []int32
	boundaryOv    []int32
}

// Oracle is a sharded distance oracle implementing oracle.Backend.
type Oracle struct {
	n, k    int
	part    []int32 // global vertex -> shard
	localID []int32 // global vertex -> local ID within its shard

	shards   []shardState
	boundary []int32        // overlay ID -> global vertex, ascending
	overlay  *oracle.Engine // nil when there are no cut edges
	cutW     map[int64]float64

	epsLocal, epsOverlay float64
	pathReporting        bool
	overlayEdges         int
	memBytes             int64

	// distCache holds assembled global distance vectors per source (the
	// shared internal/lru; nil = disabled).
	distCache *lru.Cache[int32, []float64]

	// loadShard lazily loads one shard's subgraph when the shard engines
	// are remote (set by NewRouter when a manifest directory is
	// configured); nil otherwise. Used only by AuditGraph.
	loadShard func(i int) (*graph.Graph, error)
	// Audit-graph reconstruction is done at most once per oracle (the
	// backend is immutable, so the logical graph is too).
	auditOnce sync.Once
	auditG    *graph.Graph
	auditErr  error

	// overlayFaultBits is a test-only fault injector: when non-zero it
	// holds the Float64bits of a multiplicative corruption applied to the
	// overlay leg of every routed Dist — the knob integration tests use
	// to prove the shadow auditor catches a corrupted overlay weight.
	// Never set in production paths.
	overlayFaultBits atomic.Uint64

	distQueries    atomic.Int64
	multiQueries   atomic.Int64
	nearestQueries atomic.Int64
	pathQueries    atomic.Int64
	matrixQueries  atomic.Int64
	routed         atomic.Int64
	localOnly      atomic.Int64

	// Router-level latency histograms: the latency clients of the
	// sharded backend actually see (per-shard engine histograms would
	// count internal plumbing legs, not end-to-end routed queries).
	latDist    hist.Histogram
	latMulti   hist.Histogram
	latMatrix  hist.Histogram
	latNearest hist.Histogram
	latPath    hist.Histogram
}

// Build partitions g into cfg-many shards and assembles the sharded
// oracle. Extra engine options (registry serving options, build context,
// progress) are forwarded to every engine build, after the config-derived
// ones, so a registry's cancellation always wins.
func Build(ctx context.Context, g *graph.Graph, cfg Config, opts ...oracle.Option) (*Oracle, error) {
	cfg.fill()
	k := cfg.K
	if k <= 0 {
		k = partition.KForTarget(g.N, g.M(), cfg.TargetBytes)
	}
	res := partition.Partition(g, k)
	pieces := make([]piece, len(res.Shards))
	for i, sh := range res.Shards {
		pieces[i] = piece{g: sh.G, vertices: sh.Vertices}
	}
	return assemble(ctx, cfg, res.N, res.Part, res.LocalID, pieces, res.CutEdges, opts...)
}

// piece is one shard subgraph plus its vertex map, however it was
// obtained (fresh partition or manifest load).
type piece struct {
	g        *graph.Graph
	vertices []int32
}

// assemble builds the shard engines, the overlay, and the router state.
func assemble(ctx context.Context, cfg Config, n int, part, localID []int32, pieces []piece, cut []graph.Edge, opts ...oracle.Option) (*Oracle, error) {
	cfg.fill()
	o := &Oracle{
		n: n, k: len(pieces),
		part: part, localID: localID,
		epsLocal: cfg.EpsilonLocal, epsOverlay: cfg.EpsilonOverlay,
		pathReporting: cfg.PathReporting,
		shards:        make([]shardState, len(pieces)),
	}
	if cfg.DistCache > 0 {
		o.distCache = lru.New[int32, []float64](cfg.DistCache)
	}

	localOpts := engineOpts(cfg.EpsilonLocal, cfg, ctx, opts)
	if err := o.buildEngines(pieces, cfg.BuildParallel, localOpts); err != nil {
		return nil, err
	}

	if err := o.buildOverlay(ctx, cut, engineOpts(cfg.EpsilonOverlay, cfg, ctx, opts)); err != nil {
		return nil, err
	}

	o.memBytes = o.estimateMemory()
	return o, nil
}

// WorkerEngineOptions returns the engine options a shardserve worker must
// build its per-shard engines with to answer bit-identically to the shard
// engines an in-process Oracle (or a Router's reference) would build from
// cfg: same ε_local, same κ, same path reporting. Routed answers reuse
// the workers' arithmetic verbatim, so this flag parity is exactly the
// bit-identity contract between a Router and its workers.
func WorkerEngineOptions(cfg Config) []oracle.Option {
	cfg.fill()
	return engineOpts(cfg.EpsilonLocal, cfg, nil, nil)
}

func engineOpts(eps float64, cfg Config, ctx context.Context, extra []oracle.Option) []oracle.Option {
	opts := []oracle.Option{oracle.WithEpsilon(eps)}
	if cfg.PathReporting {
		opts = append(opts, oracle.WithPathReporting())
	}
	if cfg.Kappa > 0 {
		opts = append(opts, oracle.WithKappa(cfg.Kappa))
	}
	if ctx != nil {
		opts = append(opts, oracle.WithBuildContext(ctx))
	}
	return append(opts, extra...)
}

// buildEngines builds one engine per shard, at most parallel at a time.
// Build errors cancel nothing else (engines are independent); the first
// error in shard order is returned, so failures are deterministic too.
func (o *Oracle) buildEngines(pieces []piece, parallel int, opts []oracle.Option) error {
	sem := make(chan struct{}, parallel)
	errs := make([]error, len(pieces))
	var wg sync.WaitGroup
	for i := range pieces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			eng, err := oracle.New(pieces[i].g, opts...)
			if err != nil {
				errs[i] = fmt.Errorf("shard: building shard %d (n=%d): %w", i, pieces[i].g.N, err)
				return
			}
			o.shards[i] = shardState{eng: localLeg{eng}, vertices: pieces[i].vertices}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildOverlay lays the boundary overlay: cut edges verbatim plus, per
// shard, one edge per boundary pair weighted by the shard-local (1+ε)
// distance (skipping locally disconnected pairs), then builds the overlay
// engine. With no cut edges the overlay is nil and every query is
// shard-local.
func (o *Oracle) buildOverlay(ctx context.Context, cut []graph.Edge, opts []oracle.Option) error {
	if len(cut) == 0 {
		return nil
	}
	isBoundary := make(map[int32]bool, 2*len(cut))
	o.cutW = make(map[int64]float64, len(cut))
	for _, e := range cut {
		isBoundary[e.U] = true
		isBoundary[e.V] = true
		key := cutKey(e.U, e.V)
		if w, ok := o.cutW[key]; !ok || e.W < w {
			o.cutW[key] = e.W
		}
	}
	ovID := make(map[int32]int32, len(isBoundary))
	for v := int32(0); int(v) < o.n; v++ {
		if isBoundary[v] {
			ovID[v] = int32(len(o.boundary))
			o.boundary = append(o.boundary, v)
		}
	}
	for s := range o.shards {
		sh := &o.shards[s]
		for _, gv := range o.boundary {
			if o.part[gv] == int32(s) {
				sh.boundaryLocal = append(sh.boundaryLocal, o.localID[gv])
				sh.boundaryOv = append(sh.boundaryOv, ovID[gv])
			}
		}
	}

	var edges []graph.Edge
	for _, e := range cut {
		edges = append(edges, graph.Edge{U: ovID[e.U], V: ovID[e.V], W: e.W})
	}
	// Boundary-pair edges, one MultiSource per shard. Row order is the
	// ascending boundary order, so edge emission is deterministic. Pairs
	// dominated by a two-hop alternative through a third boundary vertex
	// are pruned: a dropped (i,j) always has a replacement path of
	// strictly shorter kept edges (positive weights force w_ic, w_cj <
	// w_ij at the drop), so overlay distances never grow past the
	// dropped weight and the composed stretch bound is untouched. On
	// geometry-like shards this collapses the quadratic pair set to a
	// near-linear skeleton; above pruneLimit boundary vertices the O(B³)
	// scan would dominate the build, so the complete pair set is kept.
	for s := range o.shards {
		sh := &o.shards[s]
		b := len(sh.boundaryLocal)
		if b < 2 {
			continue
		}
		rows, err := sh.eng.MultiSource(ctx, sh.boundaryLocal)
		if err != nil {
			return fmt.Errorf("shard: boundary distances of shard %d: %w", s, err)
		}
		// Canonical orientation: rows are independent per-source
		// approximations and not symmetric, so every lookup — the prune
		// check AND the emitted edge — must read the same cell per pair,
		// or a dropped edge's two-hop replacement could be built from
		// weights larger than the ones that justified the drop.
		w := func(i, j int) float64 {
			if i > j {
				i, j = j, i
			}
			return rows[i][sh.boundaryLocal[j]]
		}
		for i := 0; i < b; i++ {
			for j := i + 1; j < b; j++ {
				wij := w(i, j)
				if math.IsInf(wij, 1) {
					continue
				}
				if b <= pruneLimit {
					dominated := false
					for c := 0; c < b && !dominated; c++ {
						if c != i && c != j && w(i, c)+w(c, j) <= wij {
							dominated = true
						}
					}
					if dominated {
						continue
					}
				}
				edges = append(edges, graph.Edge{U: sh.boundaryOv[i], V: sh.boundaryOv[j], W: wij})
			}
		}
	}

	og, err := graph.FromEdges(len(o.boundary), edges)
	if err != nil {
		return fmt.Errorf("shard: overlay graph: %w", err)
	}
	o.overlayEdges = og.M()
	eng, err := oracle.New(og, opts...)
	if err != nil {
		return fmt.Errorf("shard: overlay engine: %w", err)
	}
	o.overlay = eng
	return nil
}

func cutKey(u, v int32) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

func (o *Oracle) estimateMemory() int64 {
	bytes := int64(8 * o.n) // part + localID
	for _, sh := range o.shards {
		bytes += sh.eng.MemoryBytes()
		bytes += int64(4 * (len(sh.vertices) + 2*len(sh.boundaryLocal)))
	}
	if o.overlay != nil {
		bytes += o.overlay.MemoryBytes()
		bytes += int64(4*len(o.boundary)) + int64(16*len(o.cutW))
	}
	return bytes
}

// N implements oracle.Backend.
func (o *Oracle) N() int { return o.n }

// MemoryBytes implements oracle.Backend: the summed shard engines, the
// overlay engine, and the router's index maps.
func (o *Oracle) MemoryBytes() int64 { return o.memBytes }

// Describe implements oracle.Backend.
func (o *Oracle) Describe() oracle.BackendInfo {
	info := oracle.BackendInfo{Shards: o.k}
	for _, sh := range o.shards {
		info.HopsetEdges += sh.eng.Describe().HopsetEdges
	}
	if o.overlay != nil {
		info.HopsetEdges += o.overlay.Describe().HopsetEdges
	}
	return info
}

func (o *Oracle) checkVertex(v int32) error {
	if v < 0 || int(v) >= o.n {
		return fmt.Errorf("%w: vertex %d not in [0,%d)", oracle.ErrVertexOutOfRange, v, o.n)
	}
	return nil
}

// Dist returns the routed (1+ε_local)²(1+ε_overlay)-approximate distances
// from source to every vertex of the logical graph (+Inf where
// unreachable). The vector is assembled as
//
//	min( local(source→v)                        v in source's shard,
//	     local(source→b₁) + overlay(b₁→b₂) + local(b₂→v) )
//
// with the overlay and destination legs run as offset-seeded explorations.
// Vectors are cached in the router's LRU and shared: treat as read-only.
func (o *Oracle) Dist(source int32) ([]float64, error) {
	return o.DistContext(context.Background(), source)
}

// DistContext is Dist with a request context: cancellation and the
// active trace span flow into remote legs (it implements
// oracle.ContextBackend). Local legs ignore the context.
func (o *Oracle) DistContext(ctx context.Context, source int32) ([]float64, error) {
	start := time.Now()
	d, err := o.dist(ctx, source)
	o.latDist.Observe(time.Since(start))
	return d, err
}

func (o *Oracle) dist(ctx context.Context, source int32) ([]float64, error) {
	if err := o.checkVertex(source); err != nil {
		return nil, err
	}
	o.distQueries.Add(1)
	if d, ok := o.distCache.Get(source); ok {
		return d, nil
	}
	d, err := o.route(ctx, source)
	if err != nil {
		return nil, err
	}
	o.distCache.Add(source, d)
	return d, nil
}

// cachedDist is the uninstrumented dist body used by multi-query
// surfaces, so internal per-source legs do not pollute the "dist"
// latency histogram.
func (o *Oracle) cachedDist(ctx context.Context, source int32) ([]float64, error) {
	return o.dist(ctx, source)
}

func (o *Oracle) route(ctx context.Context, source int32) ([]float64, error) {
	s := o.part[source]
	sh := &o.shards[s]
	dloc, err := sh.eng.Dist(ctx, o.localID[source])
	if err != nil {
		return nil, err
	}
	out := make([]float64, o.n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	for l, gv := range sh.vertices {
		out[gv] = dloc[l]
	}
	if o.overlay == nil || len(sh.boundaryLocal) == 0 {
		o.localOnly.Add(1)
		return out, nil
	}

	// Seed the overlay with the local cost to reach each boundary vertex
	// of the source shard.
	offs := make([]float64, len(sh.boundaryLocal))
	finite := false
	for i, bl := range sh.boundaryLocal {
		offs[i] = dloc[bl]
		finite = finite || !math.IsInf(offs[i], 1)
	}
	if !finite {
		o.localOnly.Add(1)
		return out, nil
	}
	ovMin, err := o.overlay.NearestWithOffsets(sh.boundaryOv, offs)
	if err != nil {
		return nil, err
	}
	if scale := o.overlayFault(); scale != 1 {
		scaled := make([]float64, len(ovMin))
		for i, d := range ovMin {
			scaled[i] = d * scale
		}
		ovMin = scaled
	}

	// Continue into every shard from its boundary, with the overlay cost
	// already paid. Merging with the local leg is an elementwise min in
	// fixed vertex order — deterministic.
	for j := range o.shards {
		dst := &o.shards[j]
		if len(dst.boundaryLocal) == 0 {
			continue
		}
		offsets := make([]float64, len(dst.boundaryLocal))
		finite := false
		for i, ov := range dst.boundaryOv {
			offsets[i] = ovMin[ov]
			finite = finite || !math.IsInf(offsets[i], 1)
		}
		if !finite {
			continue
		}
		res, err := dst.eng.NearestWithOffsets(ctx, dst.boundaryLocal, offsets)
		if err != nil {
			return nil, err
		}
		for l, gv := range dst.vertices {
			if res[l] < out[gv] {
				out[gv] = res[l]
			}
		}
	}
	o.routed.Add(1)
	return out, nil
}

// DistTo implements oracle.Backend.
func (o *Oracle) DistTo(source, target int32) (float64, error) {
	if err := o.checkVertex(target); err != nil {
		return 0, err
	}
	d, err := o.Dist(source)
	if err != nil {
		return 0, err
	}
	return d[target], nil
}

// MultiSource implements oracle.Backend: row i is Dist(sources[i]).
func (o *Oracle) MultiSource(sources []int32) ([][]float64, error) {
	return o.MultiSourceContext(context.Background(), sources)
}

// MultiSourceContext is MultiSource with a request context.
func (o *Oracle) MultiSourceContext(ctx context.Context, sources []int32) ([][]float64, error) {
	start := time.Now()
	rows, err := o.multiSource(ctx, sources)
	o.latMulti.Observe(time.Since(start))
	return rows, err
}

func (o *Oracle) multiSource(ctx context.Context, sources []int32) ([][]float64, error) {
	if len(sources) == 0 {
		return nil, oracle.ErrNeedSources
	}
	for _, s := range sources {
		if err := o.checkVertex(s); err != nil {
			return nil, err
		}
	}
	o.multiQueries.Add(1)
	out := make([][]float64, len(sources))
	for i, s := range sources {
		d, err := o.cachedDist(ctx, s)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// Matrix implements oracle.MatrixBackend: out[i][j] is the routed
// approximate distance from sources[i] to targets[j]. Each distinct source
// is routed once — through the router's per-source LRU, so a repeated or
// overlapping matrix reuses assembled global vectors — and the S×T block
// is a projection of those vectors, identical to per-pair DistTo answers.
func (o *Oracle) Matrix(sources, targets []int32) ([][]float64, error) {
	return o.MatrixContext(context.Background(), sources, targets)
}

// MatrixContext is Matrix with a request context (it implements
// oracle.ContextMatrixBackend).
func (o *Oracle) MatrixContext(ctx context.Context, sources, targets []int32) ([][]float64, error) {
	start := time.Now()
	rows, err := o.matrix(ctx, sources, targets)
	o.latMatrix.Observe(time.Since(start))
	return rows, err
}

func (o *Oracle) matrix(ctx context.Context, sources, targets []int32) ([][]float64, error) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, oracle.ErrNeedSources
	}
	for _, s := range sources {
		if err := o.checkVertex(s); err != nil {
			return nil, err
		}
	}
	for _, t := range targets {
		if err := o.checkVertex(t); err != nil {
			return nil, err
		}
	}
	o.matrixQueries.Add(1)
	out := make([][]float64, len(sources))
	for i, s := range sources {
		d, err := o.cachedDist(ctx, s)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(targets))
		for j, t := range targets {
			row[j] = d[t]
		}
		out[i] = row
	}
	return out, nil
}

// Nearest implements oracle.Backend: the approximate distance to the
// nearest source, per vertex. It runs one joint routed pass — per-shard
// local Nearest over that shard's own sources, one overlay exploration
// seeded with all their boundary costs, one offset continuation per
// shard — instead of |sources| separate routes. Relaxation is min-plus
// linear, so the result is exactly the elementwise minimum of the
// per-source routed vectors, at the cost of a single Dist.
func (o *Oracle) Nearest(sources []int32) ([]float64, error) {
	return o.NearestContext(context.Background(), sources)
}

// NearestContext is Nearest with a request context.
func (o *Oracle) NearestContext(ctx context.Context, sources []int32) ([]float64, error) {
	start := time.Now()
	d, err := o.nearest(ctx, sources)
	o.latNearest.Observe(time.Since(start))
	return d, err
}

func (o *Oracle) nearest(ctx context.Context, sources []int32) ([]float64, error) {
	if len(sources) == 0 {
		return nil, oracle.ErrNeedSources
	}
	for _, s := range sources {
		if err := o.checkVertex(s); err != nil {
			return nil, err
		}
	}
	o.nearestQueries.Add(1)

	byShard := make([][]int32, o.k)
	for _, s := range sources {
		byShard[o.part[s]] = append(byShard[o.part[s]], o.localID[s])
	}
	out := make([]float64, o.n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	// Local legs: one joint exploration per shard that holds sources.
	local := make([][]float64, o.k)
	for s, srcs := range byShard {
		if len(srcs) == 0 {
			continue
		}
		v, err := o.shards[s].eng.Nearest(ctx, srcs)
		if err != nil {
			return nil, err
		}
		local[s] = v
		for l, gv := range o.shards[s].vertices {
			out[gv] = v[l]
		}
	}
	if o.overlay == nil {
		o.localOnly.Add(1)
		return out, nil
	}
	// One overlay exploration seeded with every source shard's boundary
	// costs (boundary sets are disjoint across shards).
	var ovSources []int32
	var ovOffsets []float64
	for s, v := range local {
		if v == nil {
			continue
		}
		sh := &o.shards[s]
		for i, bl := range sh.boundaryLocal {
			if d := v[bl]; !math.IsInf(d, 1) {
				ovSources = append(ovSources, sh.boundaryOv[i])
				ovOffsets = append(ovOffsets, d)
			}
		}
	}
	if len(ovSources) == 0 {
		o.localOnly.Add(1)
		return out, nil
	}
	ovMin, err := o.overlay.NearestWithOffsets(ovSources, ovOffsets)
	if err != nil {
		return nil, err
	}
	for j := range o.shards {
		dst := &o.shards[j]
		if len(dst.boundaryLocal) == 0 {
			continue
		}
		offsets := make([]float64, len(dst.boundaryLocal))
		finite := false
		for i, ov := range dst.boundaryOv {
			offsets[i] = ovMin[ov]
			finite = finite || !math.IsInf(offsets[i], 1)
		}
		if !finite {
			continue
		}
		res, err := dst.eng.NearestWithOffsets(ctx, dst.boundaryLocal, offsets)
		if err != nil {
			return nil, err
		}
		for l, gv := range dst.vertices {
			if res[l] < out[gv] {
				out[gv] = res[l]
			}
		}
	}
	o.routed.Add(1)
	return out, nil
}

// Tree is not implemented for sharded backends: a global shortest-path
// tree cannot be stitched from per-shard trees without materializing the
// whole graph, which is exactly what sharding avoids.
func (o *Oracle) Tree(source int32) (*oracle.Tree, error) {
	return nil, fmt.Errorf("%w: Tree on a sharded oracle", oracle.ErrUnsupported)
}

// Stats implements oracle.Backend: engine counters summed across shards
// and the overlay, plus the Sharded section (partition shape, router
// split, stretch accounting).
func (o *Oracle) Stats() oracle.Stats {
	var st oracle.Stats
	acc := func(s oracle.Stats) {
		st.DistQueries += s.DistQueries
		st.MultiQueries += s.MultiQueries
		st.NearestQueries += s.NearestQueries
		st.PathQueries += s.PathQueries
		st.TreeQueries += s.TreeQueries
		st.DistCache.Hits += s.DistCache.Hits
		st.DistCache.Misses += s.DistCache.Misses
		st.DistCache.Evictions += s.DistCache.Evictions
		st.DistCache.Len += s.DistCache.Len
		st.DistCache.Cap += s.DistCache.Cap
		st.TreeCache.Hits += s.TreeCache.Hits
		st.TreeCache.Misses += s.TreeCache.Misses
		st.TreeCache.Evictions += s.TreeCache.Evictions
		st.TreeCache.Len += s.TreeCache.Len
		st.TreeCache.Cap += s.TreeCache.Cap
		st.Relax.Explorations += s.Relax.Explorations
		st.Relax.ScannedArcs += s.Relax.ScannedArcs
		st.Relax.DenseRounds += s.Relax.DenseRounds
		st.Relax.SparseRounds += s.Relax.SparseRounds
		st.Relax.BatchedSeeds += s.Relax.BatchedSeeds
		st.Batches += s.Batches
		st.BatchedQueries += s.BatchedQueries
		st.BatchWaitNano += s.BatchWaitNano
		if s.LargestBatch > st.LargestBatch {
			st.LargestBatch = s.LargestBatch
		}
		if s.BatchWindowNano > st.BatchWindowNano {
			st.BatchWindowNano = s.BatchWindowNano
		}
		if len(s.BatchOccupancy) > 0 {
			if st.BatchOccupancy == nil {
				st.BatchOccupancy = make([]int64, len(s.BatchOccupancy))
			}
			for i, c := range s.BatchOccupancy {
				st.BatchOccupancy[i] += c
			}
		}
	}
	for _, sh := range o.shards {
		acc(sh.eng.Stats())
	}
	if o.overlay != nil {
		acc(o.overlay.Stats())
	}
	if st.Relax.Explorations > 0 {
		st.Relax.ArcsPerExploration = float64(st.Relax.ScannedArcs) / float64(st.Relax.Explorations)
	}
	// The router's own view: queries as clients see them (the summed
	// engine counters above include internal plumbing — every routed
	// Dist fans out into per-shard NearestWithOffsets calls), plus the
	// composed stretch guarantee.
	st.DistQueries = o.distQueries.Load()
	st.MultiQueries = o.multiQueries.Load()
	st.NearestQueries = o.nearestQueries.Load()
	st.PathQueries = o.pathQueries.Load()
	st.MatrixQueries = o.matrixQueries.Load()
	for name, h := range map[string]*hist.Histogram{
		"dist": &o.latDist, "multi": &o.latMulti, "matrix": &o.latMatrix,
		"nearest": &o.latNearest, "path": &o.latPath,
	} {
		if snap := h.Snapshot(); snap.Count > 0 {
			if st.Latency == nil {
				st.Latency = make(map[string]oracle.LatencySnapshot)
			}
			st.Latency[name] = snap
		}
	}
	st.Sharded = &oracle.ShardStats{
		Shards:           o.k,
		BoundaryVertices: len(o.boundary),
		OverlayEdges:     o.overlayEdges,
		CutEdges:         len(o.cutW),
		EpsilonLocal:     o.epsLocal,
		EpsilonOverlay:   o.epsOverlay,
		StretchBound:     (1 + o.epsLocal) * (1 + o.epsOverlay) * (1 + o.epsLocal),
		RoutedQueries:    o.routed.Load(),
		LocalQueries:     o.localOnly.Load(),
		RouterCache:      o.distCache.Snapshot(),
	}
	return st
}

// overlayFault reads the injected overlay corruption factor (1 = none).
func (o *Oracle) overlayFault() float64 {
	bits := o.overlayFaultBits.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// InjectOverlayFault is a TEST HOOK: it corrupts the overlay leg of every
// subsequent routed Dist by the multiplicative scale (e.g. 2.0 doubles
// every overlay distance), exactly as a corrupted overlay edge weight
// would. Integration tests use it to prove the shadow auditor surfaces
// the violation; the router's per-source cache is dropped so corrupted
// answers are actually recomputed and served. Pass 1 (or 0) to clear.
func (o *Oracle) InjectOverlayFault(scale float64) {
	if scale == 1 || scale == 0 {
		o.overlayFaultBits.Store(0)
	} else {
		o.overlayFaultBits.Store(math.Float64bits(scale))
	}
	if o.distCache != nil {
		o.distCache.Purge()
	}
}

// AuditGraph implements oracle.AuditableBackend: the logical input graph,
// reassembled losslessly from the per-shard subgraphs (local vertex IDs
// mapped back through each shard's vertex table) plus the cut edges. For
// a distributed router the shard subgraphs are loaded from the manifest's
// payload files on first use — the one code path that reads shard
// payloads in a router process, taken only when shadow auditing is on and
// strictly off the serve path. Reconstruction happens once; the result is
// cached for the oracle's lifetime.
func (o *Oracle) AuditGraph() (*graph.Graph, error) {
	o.auditOnce.Do(func() { o.auditG, o.auditErr = o.buildAuditGraph() })
	return o.auditG, o.auditErr
}

func (o *Oracle) buildAuditGraph() (*graph.Graph, error) {
	var edges []graph.Edge
	for key, w := range o.cutW {
		edges = append(edges, graph.Edge{U: int32(key >> 32), V: int32(key & 0xffffffff), W: w})
	}
	for i := range o.shards {
		sh := &o.shards[i]
		var sg *graph.Graph
		switch leg := sh.eng.(type) {
		case localLeg:
			// AuditGraph, not Hopset().G: the engine's retained graph may
			// carry normalized weights, and cut edges (above) are in input
			// units — the audit graph must be uniformly input-unit.
			var err error
			if sg, err = leg.Engine.AuditGraph(); err != nil {
				return nil, fmt.Errorf("shard: audit graph of shard %d: %w", i, err)
			}
		default:
			if o.loadShard == nil {
				return nil, fmt.Errorf("%w: audit graph of remote shards without a manifest directory", oracle.ErrUnsupported)
			}
			var err error
			if sg, err = o.loadShard(i); err != nil {
				return nil, fmt.Errorf("shard: audit load of shard %d: %w", i, err)
			}
		}
		for _, e := range sg.Edges {
			edges = append(edges, graph.Edge{U: sh.vertices[e.U], V: sh.vertices[e.V], W: e.W})
		}
	}
	return graph.FromEdges(o.n, edges)
}

// StretchBounds implements oracle.AuditableBackend. Dist answers honor
// the composed (1+ε_local)(1+ε_overlay)(1+ε_local) bound; a stitched
// Path's length (always the exact length of the concrete returned walk)
// may additionally pay one (1+ε_overlay)(1+ε_local) factor for crossing
// the overlay at an approximately-chosen boundary pair.
func (o *Oracle) StretchBounds() (dist, path float64) {
	b := (1 + o.epsLocal) * (1 + o.epsOverlay) * (1 + o.epsLocal)
	return b, b * (1 + o.epsOverlay) * (1 + o.epsLocal)
}

var (
	_ oracle.Backend          = (*Oracle)(nil)
	_ oracle.MatrixBackend    = (*Oracle)(nil)
	_ oracle.AuditableBackend = (*Oracle)(nil)
)
