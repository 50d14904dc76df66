// Package oracle is the public facade of the reproduction: a build-once /
// query-many distance-oracle engine over the deterministic hopsets of
//
//	Michael Elkin and Shaked Matar,
//	"Deterministic PRAM Approximate Shortest Paths in Polylogarithmic Time
//	 and Slightly Super-Linear Work", SPAA 2021 (arXiv:2009.14729).
//
// A hopset is exactly the "pay the construction once, answer every source
// cheaply" structure, so the Engine amortizes one deterministic build
// across many concurrent queries: Dist, MultiSource, Path and Tree are all
// safe to call from any number of goroutines, answers are bit-identical to
// sequential evaluation, per-source distance vectors and shortest-path
// trees are held in LRU caches with hit/miss statistics, and — with
// WithBatchWindow — concurrent cache-missing Dist calls coalesce into one
// multi-source exploration.
//
//	eng, err := oracle.NewFromEdges(n, edges, oracle.WithEpsilon(0.25))
//	d, err := eng.Dist(0)          // (1+ε)-approximate distances from 0
//	l, err := eng.DistTo(0, 17)    // one scalar distance
//	st := eng.Stats()              // cache and batching counters
//
// Engines can be persisted with SaveSnapshot and revived with LoadSnapshot
// without repeating the build. A Registry serves many named engines with
// background builds and hot reloads; NewRegistryHandler exposes it over
// HTTP, as cmd/serve does.
package oracle

import (
	"context"
	"io"
	"time"

	"repro/graphio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/pram"
)

// Edge is one weighted undirected edge of the input graph.
type Edge struct {
	U, V int32
	W    float64
}

// config is the resolved option set of a constructor call.
type config struct {
	opts        core.Options
	buildCtx    context.Context
	distCache   int
	treeCache   int
	batchWindow time.Duration
}

func (c *config) ctx() context.Context {
	if c.buildCtx != nil {
		return c.buildCtx
	}
	return context.Background()
}

func defaultConfig() config {
	return config{
		opts:      core.Options{Epsilon: 0.25},
		distCache: 128,
		treeCache: 16,
	}
}

// Option configures an Engine under construction.
type Option func(*config)

// WithEpsilon sets the stretch target: distances are within (1+eps) of
// exact. Must be in (0, 1); the default is 0.25.
func WithEpsilon(eps float64) Option { return func(c *config) { c.opts.Epsilon = eps } }

// WithKappa sets κ ≥ 2 (default 3), trading hopset size against hopbound.
func WithKappa(kappa int) Option { return func(c *config) { c.opts.Kappa = kappa } }

// WithRho sets ρ ∈ (0, 1/2) (default 1/3), trading work against phases.
func WithRho(rho float64) Option { return func(c *config) { c.opts.Rho = rho } }

// WithEffectiveBeta caps exploration and query hop budgets (0 = auto).
func WithEffectiveBeta(beta int) Option { return func(c *config) { c.opts.EffectiveBeta = beta } }

// WithPathReporting records a realizing path per hopset edge at build
// time, enabling Path and Tree queries (§4 of the paper).
func WithPathReporting() Option { return func(c *config) { c.opts.PathReporting = true } }

// WithWeightReduction applies the Klein–Sairam reduction (Appendix C/D);
// choose it when edge weights span many orders of magnitude.
func WithWeightReduction() Option { return func(c *config) { c.opts.WeightReduction = true } }

// WithStrictWeights uses the paper's closed-form pessimistic hopset edge
// weights instead of tight discovered path lengths.
func WithStrictWeights() Option { return func(c *config) { c.opts.StrictWeights = true } }

// WithTracker accumulates PRAM depth/work accounting for the build and
// every query.
func WithTracker(tr *pram.Tracker) Option { return func(c *config) { c.opts.Tracker = tr } }

// WithDistCache sets the capacity of the per-source distance-vector LRU
// (default 128; 0 disables caching).
func WithDistCache(entries int) Option { return func(c *config) { c.distCache = entries } }

// WithTreeCache sets the capacity of the shortest-path-tree LRU
// (default 16; 0 disables caching).
func WithTreeCache(entries int) Option { return func(c *config) { c.treeCache = entries } }

// WithBatchWindow coalesces Dist queries: a cache-missing query waits up
// to window for companions, then all pending sources share one
// multi-source exploration. 0 (the default) answers each miss immediately.
func WithBatchWindow(window time.Duration) Option {
	return func(c *config) { c.batchWindow = window }
}

// BuildProgress is one report from an engine build: the hopset scale just
// completed, the scale range [K0, Lambda], and the edge count so far. The
// final report of a successful build has Done set.
type BuildProgress struct {
	Scale, K0, Lambda int
	Edges             int
	Done              bool
}

// WithBuildContext makes the construction cooperative: the hopset build
// checks ctx between scales and New/NewFromEdges/LoadGraph return ctx's
// error when it is canceled. The Registry uses this to cancel background
// builds; it has no effect on queries.
func WithBuildContext(ctx context.Context) Option {
	return func(c *config) { c.buildCtx = ctx }
}

// WithBuildProgress registers a callback invoked from the building
// goroutine after every completed hopset scale. Keep it fast; it is on the
// build path.
func WithBuildProgress(fn func(BuildProgress)) Option {
	return func(c *config) {
		c.opts.Progress = func(p hopset.Progress) { fn(BuildProgress(p)) }
	}
}

// New builds an Engine for an already-constructed graph. It is the
// in-module constructor used by the cmd/ binaries and examples; external
// callers use NewFromEdges or LoadGraph.
func New(g *graph.Graph, options ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, o := range options {
		o(&cfg)
	}
	solver, err := core.NewCtx(cfg.ctx(), g, cfg.opts)
	if err != nil {
		return nil, err
	}
	return newEngine(solver, cfg), nil
}

// NewFromEdges builds an Engine over the n-vertex graph with the given
// undirected edges (0-based vertices, positive weights).
func NewFromEdges(n int, edges []Edge, options ...Option) (*Engine, error) {
	ge := make([]graph.Edge, len(edges))
	for i, e := range edges {
		ge[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	g, err := graph.FromEdges(n, ge)
	if err != nil {
		return nil, err
	}
	return New(g, options...)
}

// LoadGraph builds an Engine over a graph read from r in any supported
// text or binary format (auto-detected by graphio: DIMACS .gr, edge
// lists, METIS adjacency, the legacy "p/e" text format, or a .csrg
// container, each optionally gzipped).
func LoadGraph(r io.Reader, options ...Option) (*Engine, error) {
	g, _, err := graphio.Decode(r)
	if err != nil {
		return nil, err
	}
	return New(g, options...)
}
