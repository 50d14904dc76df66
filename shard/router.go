package shard

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/graphio"
	"repro/internal/graph"
	"repro/internal/lru"
	"repro/oracle"
)

// RouterConfig shapes a distributed scatter-gather router.
type RouterConfig struct {
	// Config carries the epsilons, kappa, path reporting, and cache sizes.
	// EpsilonLocal, Kappa, and PathReporting MUST match the flags the
	// shard workers were started with: the router's composed answer reuses
	// the workers' per-shard arithmetic, so bit-identity with an
	// in-process Oracle holds exactly when both sides build the same
	// engines. (K and TargetBytes are ignored; the manifest fixes the
	// partition.)
	Config

	// HedgeDelay is a fixed delay before the second replica is tried.
	// 0 derives it per primary endpoint from its observed p99 latency
	// (50ms until enough samples accumulate), clamped to [2ms, 1s].
	HedgeDelay time.Duration
	// ProbeInterval is the per-endpoint /healthz cadence (default 250ms).
	ProbeInterval time.Duration
	// ReadyTimeout bounds how long NewRouter waits for every shard to
	// have at least one replica serving before building the overlay
	// (default 2m; the build context can cancel earlier).
	ReadyTimeout time.Duration
	// Client issues query requests (nil: 60s-timeout default). Probes use
	// their own short-timeout client regardless.
	Client *http.Client
	// ManifestDir is the directory holding the manifest's shard payload
	// files. When set, shadow audits (oracle.AuditableBackend) can load
	// shard subgraphs lazily to reconstruct the logical graph for exact
	// recomputation — the only router code path that reads shard
	// payloads, taken off the serve path and only when auditing samples.
	// Empty leaves AuditGraph unsupported on the router. RouterSource
	// fills it from the manifest path automatically.
	ManifestDir string
}

func (cfg *RouterConfig) fill() {
	cfg.Config.fill()
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 2 * time.Minute
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 60 * time.Second}
	}
}

// Router serves one logical sharded graph whose per-shard engines live in
// other processes (cmd/shardserve workers), scatter-gathering every query
// over HTTP. It embeds the in-process Oracle and reuses its routing,
// stitching, and caching verbatim — only the per-shard legs go remote,
// through hedged replica sets — so answers are bit-identical to a local
// shard.Oracle over the same manifest (same epsilons, same worker build
// flags; engines are deterministic and float64 survives JSON exactly).
//
// The boundary overlay is built locally at construction time from the
// manifest's cut edges plus boundary-pair distances fetched from the
// workers — the shard graphs themselves are never loaded into the router
// process.
//
// Router implements oracle.Backend (and MatrixBackend), so the registry
// serves it like any other graph: background builds, hot reload,
// eviction — the whole Handle lifecycle is unchanged, which is the point
// of RemoteBackend living under Backend.
type Router struct {
	*Oracle

	cfg       RouterConfig
	endpoints map[string]*endpoint // by base URL, shared across shards
	sets      []*replicaSet
	counters  remoteCounters

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeClient *http.Client
	probeWG     sync.WaitGroup
	closeOnce   sync.Once
}

// NewRouter assembles a distributed router over a shard manifest and a
// placement map. It needs only the manifest's metadata (partition shape,
// vertex maps, cut edges) — no shard payload files — plus reachable
// workers: construction waits (up to cfg.ReadyTimeout, or ctx) for every
// shard to have one serving replica, then fetches the boundary-pair rows
// that seed the local overlay engine. Engine options in opts are
// forwarded to the overlay build (the registry's build context wins).
//
// Close the router when done serving; RouterSource does this on reload.
func NewRouter(ctx context.Context, man *graphio.ShardManifest, pl *Placement, cfg RouterConfig, opts ...oracle.Option) (*Router, error) {
	cfg.fill()
	if err := pl.validate(man.K); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	o := &Oracle{
		n: man.N, k: man.K,
		part:          man.Part(),
		epsLocal:      cfg.EpsilonLocal,
		epsOverlay:    cfg.EpsilonOverlay,
		pathReporting: cfg.PathReporting,
		shards:        make([]shardState, man.K),
	}
	o.localID = make([]int32, man.N)
	for i := range man.Shards {
		for l, gv := range man.Shards[i].Vertices {
			o.localID[gv] = int32(l)
		}
	}
	if cfg.DistCache > 0 {
		o.distCache = lru.New[int32, []float64](cfg.DistCache)
	}
	if cfg.ManifestDir != "" {
		dir := cfg.ManifestDir
		o.loadShard = func(i int) (*graph.Graph, error) {
			sg, err := man.LoadShard(dir, i)
			if err != nil {
				return nil, err
			}
			return sg.G, nil
		}
	}

	r := &Router{
		Oracle:      o,
		cfg:         cfg,
		endpoints:   make(map[string]*endpoint),
		probeClient: &http.Client{Timeout: 2 * time.Second},
	}
	r.probeCtx, r.probeCancel = context.WithCancel(context.Background())

	for i := range o.shards {
		sp := pl.Shards[i]
		rs := &replicaSet{
			shard:      i,
			counters:   &r.counters,
			hedgeAfter: r.hedgeAfter,
			ctx:        r.probeCtx,
		}
		for _, u := range sp.Replicas {
			ep, ok := r.endpoints[u]
			if !ok {
				ep = &endpoint{url: u}
				r.endpoints[u] = ep
			}
			rs.replicas = append(rs.replicas, replica{
				ep: ep,
				be: oracle.NewRemoteBackend(u, pl.ShardName(i), cfg.Client),
			})
		}
		r.sets = append(r.sets, rs)
		o.shards[i] = shardState{eng: rs, vertices: man.Shards[i].Vertices}
	}

	// Seed health synchronously so the first queries have an ordering,
	// then keep probing in the background.
	for _, ep := range r.endpoints {
		probeEndpoint(ctx, r.probeClient, ep)
	}
	r.startProbes()

	if err := r.waitReady(ctx); err != nil {
		r.Close()
		return nil, err
	}

	cut := make([]graph.Edge, len(man.CutEdges))
	for i, e := range man.CutEdges {
		cut[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	// buildOverlay pulls each shard's boundary-pair rows through the
	// replica set (one remote MultiSource per shard) and builds the
	// overlay engine locally — the same code path, and therefore the same
	// overlay bits, as the in-process assemble.
	if err := o.buildOverlay(ctx, cut, engineOpts(cfg.EpsilonOverlay, cfg.Config, ctx, opts)); err != nil {
		r.Close()
		return nil, err
	}
	o.memBytes = o.estimateMemory()
	return r, nil
}

// waitReady blocks until every shard has at least one replica serving its
// graph (workers may still be building engines when the router starts).
func (r *Router) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ReadyTimeout)
	defer cancel()
	for i, rs := range r.sets {
		for !rs.ready(ctx) {
			select {
			case <-ctx.Done():
				return fmt.Errorf("shard: waiting for shard %d replicas: %w", i, ctx.Err())
			case <-time.After(200 * time.Millisecond):
			}
		}
	}
	return nil
}

// startProbes launches one health-probe loop per distinct endpoint.
func (r *Router) startProbes() {
	for _, ep := range r.endpoints {
		r.probeWG.Add(1)
		go func(ep *endpoint) {
			defer r.probeWG.Done()
			t := time.NewTicker(r.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-r.probeCtx.Done():
					return
				case <-t.C:
					probeEndpoint(r.probeCtx, r.probeClient, ep)
				}
			}
		}(ep)
	}
}

// hedgeAfter is the replicaSets' hedge-delay policy: fixed when
// configured, else the primary endpoint's observed p99 (so hedges fire
// exactly for tail-straggler requests), defaulting to 50ms until enough
// samples accumulate and clamped to [2ms, 1s].
func (r *Router) hedgeAfter(ep *endpoint) time.Duration {
	if r.cfg.HedgeDelay > 0 {
		return r.cfg.HedgeDelay
	}
	snap := ep.lat.Snapshot()
	if snap.Count < 16 {
		return 50 * time.Millisecond
	}
	d := time.Duration(snap.P99Us) * time.Microsecond
	switch {
	case d < 2*time.Millisecond:
		d = 2 * time.Millisecond
	case d > time.Second:
		d = time.Second
	}
	return d
}

// Stats implements oracle.Backend: the embedded Oracle's router-level
// view plus the Remote section (per-endpoint health, traffic, latency,
// and the hedging/failover counters).
func (r *Router) Stats() oracle.Stats {
	st := r.Oracle.Stats()
	urls := make([]string, 0, len(r.endpoints))
	for u := range r.endpoints {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	remote := &oracle.RemoteStats{
		Hedges:    r.counters.hedges.Load(),
		HedgeWins: r.counters.hedgeWins.Load(),
		Failovers: r.counters.failovers.Load(),
	}
	for _, u := range urls {
		remote.Endpoints = append(remote.Endpoints, r.endpoints[u].stats())
	}
	st.Sharded.Remote = remote
	return st
}

// Close stops the health probes and cancels in-flight hedged calls. The
// embedded Oracle state stays readable (Stats, Describe); queries after
// Close fail with canceled contexts.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		r.probeCancel()
		r.probeWG.Wait()
	})
}

// RouterSource is the registry integration for a routed graph: every
// build (initial or reload) re-reads the manifest and placement files,
// assembles a fresh Router, and closes the previous one once the swap
// lands — probes never pile up across hot reloads. placementPath may name
// a JSON placement file; or pass peers to place every shard on every peer
// (the -shard-peers shape). Exactly one of the two must be set.
func RouterSource(manifestPath, placementPath string, peers []string, cfg RouterConfig) oracle.EngineSource {
	var mu sync.Mutex
	var prev *Router
	return func(ctx context.Context, opts ...oracle.Option) (oracle.Backend, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		man, err := graphio.LoadShardManifest(manifestPath)
		if err != nil {
			return nil, err
		}
		if cfg.ManifestDir == "" {
			cfg.ManifestDir = filepath.Dir(manifestPath)
		}
		var pl *Placement
		switch {
		case placementPath != "":
			if pl, err = LoadPlacement(placementPath); err != nil {
				return nil, err
			}
		case len(peers) > 0:
			pl = UniformPlacement(man.Name, man.K, peers)
		default:
			return nil, fmt.Errorf("shard: router needs a placement file or peer list")
		}
		rt, err := NewRouter(ctx, man, pl, cfg, opts...)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		old := prev
		prev = rt
		mu.Unlock()
		if old != nil {
			old.Close()
		}
		return rt, nil
	}
}

var (
	_ oracle.Backend       = (*Router)(nil)
	_ oracle.MatrixBackend = (*Router)(nil)
)
