package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/lru"
	"repro/internal/par"
)

// Registry errors. Match with errors.Is.
var (
	// ErrUnknownGraph is wrapped by every registry call naming a graph
	// that was never added (or was removed).
	ErrUnknownGraph = errors.New("oracle: unknown graph")

	// ErrGraphNotReady is wrapped by queries against a graph whose engine
	// is not resident: still pending or building, failed, or evicted.
	ErrGraphNotReady = errors.New("oracle: graph not ready")

	// ErrDuplicateGraph is returned by Add for a name already registered.
	ErrDuplicateGraph = errors.New("oracle: graph already registered")

	// ErrRegistryClosed is returned by every call after Close.
	ErrRegistryClosed = errors.New("oracle: registry closed")
)

// GraphStatus is the lifecycle state of a registered graph:
//
//	pending → building → ready
//	                   ↘ failed
//	ready → evicted → building (on demand or explicit Reload)
//
// A hot reload does not leave ready: the current engine keeps serving
// while the replacement builds, and the swap is atomic.
type GraphStatus string

const (
	StatusPending  GraphStatus = "pending"
	StatusBuilding GraphStatus = "building"
	StatusReady    GraphStatus = "ready"
	StatusFailed   GraphStatus = "failed"
	StatusEvicted  GraphStatus = "evicted"
)

// EngineSource produces one backend version for a registered graph. It is
// invoked for the initial background build and again on every Reload, so
// it must be re-invokable: re-read the snapshot file, or rebuild from the
// retained graph. The options carry the registry's serving configuration
// plus build context/progress plumbing and must be forwarded to the
// constructor; ctx is the same context for sources that load rather than
// build. Most sources return a monolithic *Engine; package shard returns
// its sharded Oracle — the registry serves both identically.
type EngineSource func(ctx context.Context, opts ...Option) (Backend, error)

// SnapshotSource loads each engine version from a SaveSnapshot file —
// the zero-downtime refresh path: overwrite the file, POST a reload, and
// the registry swaps in the new engine once it is resident.
func SnapshotSource(path string) EngineSource {
	return func(ctx context.Context, opts ...Option) (Backend, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return LoadSnapshot(f, opts...)
	}
}

// GraphSource builds each engine version from a retained graph with the
// given build-shaping options (epsilon, path reporting, …). The registry's
// options are applied after buildOpts, so its build context and progress
// plumbing always win.
func GraphSource(g *graph.Graph, buildOpts ...Option) EngineSource {
	return func(ctx context.Context, opts ...Option) (Backend, error) {
		return New(g, append(append([]Option{}, buildOpts...), opts...)...)
	}
}

// EdgesSource is GraphSource for callers holding an edge list.
func EdgesSource(n int, edges []Edge, buildOpts ...Option) EngineSource {
	return func(ctx context.Context, opts ...Option) (Backend, error) {
		return NewFromEdges(n, edges, append(append([]Option{}, buildOpts...), opts...)...)
	}
}

// Handle is a refcounted lease on one backend version. Queries that must
// be internally consistent acquire a handle once and run every read
// through it: a concurrent hot reload publishes the next version to new
// acquirers but never swaps a backend out from under a held handle.
// Release returns the lease; the backend is retired only after the last
// lease is gone.
type Handle struct {
	eng     Backend
	version int64
	refs    atomic.Int64
	drained chan struct{}
	// onDrained is run exactly once, by whichever Release drops the last
	// reference (set at creation; used by the registry's draining gauge).
	onDrained func()
}

func newHandle(eng Backend, version int64, onDrained func()) *Handle {
	h := &Handle{eng: eng, version: version, drained: make(chan struct{}), onDrained: onDrained}
	h.refs.Store(1) // the publisher's reference
	return h
}

// Engine returns the pinned backend. Valid until Release. Callers needing
// engine-only surface (e.g. SaveSnapshot) type-assert to *Engine.
func (h *Handle) Engine() Backend { return h.eng }

// Version identifies the engine generation: it increments on every
// successful build or reload of the graph, so two answers carry the same
// Version iff they came from the same immutable engine.
func (h *Handle) Version() int64 { return h.version }

// Release returns the lease. The final release retires the engine.
func (h *Handle) Release() {
	if n := h.refs.Add(-1); n == 0 {
		close(h.drained)
		if h.onDrained != nil {
			h.onDrained()
		}
	} else if n < 0 {
		panic("oracle: Handle released twice")
	}
}

// Drained is closed once every lease on this engine version has been
// released — the moment a swapped-out engine has fully drained.
func (h *Handle) Drained() <-chan struct{} { return h.drained }

// acquire adds a lease. Callers must guarantee the publisher's reference
// is still held (the registry does, under the entry lock).
func (h *Handle) acquire() { h.refs.Add(1) }

// RegistryConfig configures a Registry. The zero value is serviceable:
// builds bounded by half the par worker budget, no memory budget, default
// engine options.
type RegistryConfig struct {
	// BuildWorkers bounds how many background builds run at once (the
	// build-worker pool). Builds parallelize internally on the
	// internal/par pool, so the default — max(1, par.Workers()/2) — keeps
	// a few builds in flight without oversubscribing the same cores.
	BuildWorkers int
	// MemoryBudget caps the summed Engine.MemoryBytes of resident
	// engines; 0 means unlimited. When a build lands the registry evicts
	// least-recently-used ready graphs (never the one that just landed,
	// never one mid-build) until under budget. Evicted graphs keep their
	// source and rebuild on demand.
	MemoryBudget int64
	// EngineOptions are serving options (caches, batch window, …) applied
	// to every engine the registry creates.
	EngineOptions []Option
	// HotPairCache enables the registry-level hot-pair result cache: up
	// to this many (graph, source) distance rows are answered without
	// acquiring a handle, and — via DistSWR — served stale across hot
	// reloads while the new engine warms in the background. 0 disables.
	HotPairCache int
	// Audit receives a sampled fraction of served answers for background
	// exact recomputation (oracle/audit.Auditor). Each sample carries a
	// retained handle lease, so audits always recompute against the
	// engine version that answered — never a reloaded successor. nil
	// disables shadow auditing. Close drains the sink.
	Audit AuditSink
}

// Registry is the multi-graph serving layer: it owns N named engines
// behind one API, builds them in the background off the request path,
// hot-swaps versions with draining, and evicts cold graphs under a memory
// budget. All methods are safe for concurrent use.
type Registry struct {
	cfg RegistryConfig
	sem chan struct{} // build-pool slots

	ctx    context.Context
	cancel context.CancelFunc

	// buildMu gates build-goroutine spawning against Close: wg.Add only
	// ever runs under buildMu with noBuilds false, so wg.Wait cannot race
	// a late Add. It is a leaf lock (nothing else is taken under it).
	buildMu  sync.Mutex
	noBuilds bool
	wg       sync.WaitGroup

	// mu is an RWMutex so the hot-pair fresh path (lookup + atomic
	// version check) shares the read lock instead of serializing every
	// query through one mutex.
	mu     sync.RWMutex
	graphs map[string]*graphEntry
	closed bool

	// hot is the hot-pair result cache (nil = disabled): one
	// version-tagged row per (graph, source), see swr.go.
	hot           *lru.Cache[hotKey, hotEntry]
	staleHits     atomic.Int64
	revalidations atomic.Int64
	// reval tracks in-flight background revalidations (singleflight per
	// key, bounded in total by maxReval so a reload storm over a huge hot
	// set cannot spawn unbounded goroutines).
	revalMu sync.Mutex
	reval   map[hotKey]struct{}

	clock        atomic.Int64 // logical LRU clock, ticked per query
	queries      atomic.Int64
	buildsDone   atomic.Int64
	buildsFailed atomic.Int64
	reloads      atomic.Int64
	evictions    atomic.Int64
	draining     atomic.Int64
}

type graphEntry struct {
	name   string
	source EngineSource

	mu       sync.Mutex
	status   GraphStatus
	err      error // last build failure
	handle   *Handle
	version  int64 // versions published so far
	building bool  // a build (initial or reload) is in flight
	// pendingReload records a Reload that arrived while a build was in
	// flight: that build may have read the source before the caller's
	// rewrite, so another build is enqueued when it finishes.
	pendingReload bool
	progress      BuildProgress
	cancel        context.CancelFunc // cancels the in-flight build
	changed       chan struct{}      // closed+replaced on every state change

	// curVer mirrors version atomically: the hot-pair fresh check reads
	// it without e.mu, so a cached row can be classified fresh/stale in
	// two atomic loads.
	curVer atomic.Int64

	lastUsed atomic.Int64
	queries  atomic.Int64
}

// notifyLocked wakes WaitReady waiters. e.mu must be held.
func (e *graphEntry) notifyLocked() {
	close(e.changed)
	e.changed = make(chan struct{})
}

// NewRegistry returns an empty registry. Close it when done: Close cancels
// in-flight builds and waits for the build pool to wind down.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.BuildWorkers <= 0 {
		cfg.BuildWorkers = par.Workers() / 2
		if cfg.BuildWorkers < 1 {
			cfg.BuildWorkers = 1
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.BuildWorkers),
		ctx:    ctx,
		cancel: cancel,
		graphs: make(map[string]*graphEntry),
	}
	if cfg.HotPairCache > 0 {
		r.hot = lru.New[hotKey, hotEntry](cfg.HotPairCache)
		r.reval = make(map[hotKey]struct{})
	}
	return r
}

// Add registers a graph under name and enqueues its background build (or
// snapshot load). It returns immediately; use WaitReady or Info to follow
// the pending → building → ready/failed lifecycle.
func (r *Registry) Add(name string, src EngineSource) error {
	if name == "" || src == nil {
		return errors.New("oracle: Add needs a name and a source")
	}
	e, err := r.register(name, src)
	if err != nil {
		return err
	}
	e.mu.Lock()
	r.scheduleBuildLocked(e)
	e.mu.Unlock()
	return nil
}

// AddReady registers an already-built backend under name, immediately
// ready: the backend is published before AddReady returns, so an Acquire
// right after it succeeds. Reload re-publishes the same backend; use Add
// with a source for rebuildable graphs.
func (r *Registry) AddReady(name string, eng Backend) error {
	if name == "" || eng == nil {
		return errors.New("oracle: AddReady needs a name and an engine")
	}
	// Count the publish as build work so Close, which waits for the build
	// WaitGroup before retiring engines, cannot retire the entry before
	// its handle lands.
	r.buildMu.Lock()
	if r.noBuilds {
		r.buildMu.Unlock()
		return ErrRegistryClosed
	}
	r.wg.Add(1)
	r.buildMu.Unlock()
	defer r.wg.Done()
	e, err := r.register(name, func(context.Context, ...Option) (Backend, error) { return eng, nil })
	if err != nil {
		return err
	}
	r.finishBuild(e, eng, nil)
	return nil
}

// register inserts a pending entry for name, refusing duplicates and a
// closed registry.
func (r *Registry) register(name string, src EngineSource) (*graphEntry, error) {
	e := &graphEntry{name: name, source: src, status: StatusPending, changed: make(chan struct{})}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	if _, dup := r.graphs[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateGraph, name)
	}
	r.graphs[name] = e
	return e, nil
}

// Remove unregisters a graph: its in-flight build (if any) is canceled and
// its engine retires once in-flight queries drain.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	e, ok := r.graphs[name]
	if ok {
		delete(r.graphs, name)
	}
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return ErrRegistryClosed
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	e.mu.Lock()
	if e.cancel != nil {
		e.cancel()
	}
	old := e.handle
	e.handle = nil
	e.status = StatusEvicted
	e.notifyLocked()
	e.mu.Unlock()
	if old != nil {
		r.draining.Add(1)
		old.Release()
	}
	if r.hot != nil {
		// Drop the graph's rows: a later Add under the same name restarts
		// the version counter, which would alias stale rows as fresh.
		r.purgeHot(name)
	}
	return nil
}

// Reload enqueues a fresh build from the graph's source and atomically
// swaps it in when it lands. The current engine (if any) keeps serving
// until the swap, so a reload is zero-downtime; in-flight queries drain on
// the old version's refcount. A reload while another build is in flight
// queues one follow-up build: the in-flight build may have read the
// source before the caller's rewrite, so the contract — reload always
// re-reads the source as it is now or later — is kept by rebuilding once
// more when it finishes (multiple queued reloads coalesce into that one).
func (r *Registry) Reload(name string) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	r.reloads.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.building {
		e.pendingReload = true
		return nil
	}
	r.scheduleBuildLocked(e)
	return nil
}

// scheduleBuildLocked enqueues a build for e. e.mu must be held; the
// registry must not be closed (checked by callers via lookup/Add). During
// shutdown the spawn is refused and the entry is left as-is.
func (r *Registry) scheduleBuildLocked(e *graphEntry) {
	r.buildMu.Lock()
	if r.noBuilds {
		r.buildMu.Unlock()
		return
	}
	r.wg.Add(1)
	r.buildMu.Unlock()
	ctx, cancel := context.WithCancel(r.ctx)
	e.building = true
	e.cancel = cancel
	e.progress = BuildProgress{}
	if e.handle == nil {
		e.status = StatusBuilding
	}
	e.notifyLocked()
	go r.runBuild(e, ctx)
}

func (r *Registry) runBuild(e *graphEntry, ctx context.Context) {
	defer r.wg.Done()
	// Claim a build-pool slot; a canceled build never starts.
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
	case <-ctx.Done():
		r.finishBuild(e, nil, ctx.Err())
		return
	}
	opts := append(append([]Option{}, r.cfg.EngineOptions...),
		WithBuildContext(ctx),
		WithBuildProgress(func(p BuildProgress) {
			e.mu.Lock()
			e.progress = p
			e.mu.Unlock()
		}),
	)
	eng, err := e.source(ctx, opts...)
	if err == nil && eng == nil {
		err = errors.New("oracle: source returned no engine")
	}
	r.finishBuild(e, eng, err)
}

// finishBuild publishes a new engine version (or records the failure) and
// releases the previous version for draining.
func (r *Registry) finishBuild(e *graphEntry, eng Backend, err error) {
	var old *Handle
	e.mu.Lock()
	e.building = false
	e.cancel = nil
	if err != nil {
		r.buildsFailed.Add(1)
		e.err = err
		// A failed reload keeps the old engine serving.
		if e.handle == nil {
			e.status = StatusFailed
		}
	} else {
		r.buildsDone.Add(1)
		e.err = nil
		e.version++
		e.curVer.Store(e.version)
		old = e.handle
		e.handle = newHandle(eng, e.version, func() { r.draining.Add(-1) })
		e.status = StatusReady
		e.lastUsed.Store(r.clock.Add(1))
	}
	if e.pendingReload {
		// A Reload arrived mid-build; its source rewrite may postdate the
		// bits this build read, so go around once more.
		e.pendingReload = false
		r.scheduleBuildLocked(e)
	}
	e.notifyLocked()
	e.mu.Unlock()
	if old != nil {
		r.draining.Add(1)
		old.Release()
	}
	if err == nil {
		r.enforceBudget(e)
	}
}

// enforceBudget evicts least-recently-used ready graphs until the summed
// engine memory fits the configured budget. keep — the graph whose build
// just landed — is never evicted, so a build cannot evict itself and one
// oversized graph cannot thrash.
func (r *Registry) enforceBudget(keep *graphEntry) {
	if r.cfg.MemoryBudget <= 0 {
		return
	}
	type resident struct {
		e        *graphEntry
		h        *Handle
		bytes    int64
		lastUsed int64
	}
	r.mu.Lock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.Unlock()

	var ready []resident
	var total int64
	for _, e := range entries {
		e.mu.Lock()
		if e.handle != nil {
			b := e.handle.Engine().MemoryBytes()
			ready = append(ready, resident{e, e.handle, b, e.lastUsed.Load()})
			total += b
		}
		e.mu.Unlock()
	}
	if total <= r.cfg.MemoryBudget {
		return
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].lastUsed < ready[j].lastUsed })
	for _, cand := range ready {
		if total <= r.cfg.MemoryBudget {
			break
		}
		if cand.e == keep {
			continue
		}
		var old *Handle
		cand.e.mu.Lock()
		// Re-check under the lock: a reload or an earlier eviction may
		// have landed. Recency is not re-checked — every query bumps it,
		// so under steady traffic no candidate would ever qualify.
		if cand.e.handle == cand.h && !cand.e.building {
			old = cand.e.handle
			cand.e.handle = nil
			cand.e.status = StatusEvicted
			cand.e.notifyLocked()
			total -= cand.bytes
			r.evictions.Add(1)
		}
		cand.e.mu.Unlock()
		if old != nil {
			r.draining.Add(1)
			old.Release()
			if r.hot != nil {
				// Same reason as Remove: an evicted graph's cached rows are
				// tagged with a version nothing re-validates until the next
				// rebuild lands, so they would serve stale for an unbounded
				// window (and hold memory against the very budget that
				// triggered the eviction). Drop them with the engine.
				r.purgeHot(cand.e.name)
			}
		}
	}
}

func (r *Registry) lookup(name string) (*graphEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	e, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	return e, nil
}

// Acquire pins the graph's current engine version and returns a Handle.
// Reads through one handle are guaranteed to come from one immutable
// engine even across concurrent reloads. Acquiring an evicted graph
// enqueues its rebuild and returns ErrGraphNotReady; acquiring a failed
// graph returns the build error wrapped in ErrGraphNotReady.
func (r *Registry) Acquire(name string) (*Handle, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.handle != nil {
		e.handle.acquire()
		e.lastUsed.Store(r.clock.Add(1))
		e.queries.Add(1)
		r.queries.Add(1)
		return e.handle, nil
	}
	switch {
	case e.status == StatusEvicted && !e.building:
		// Cold graph warmed by demand: rebuild in the background.
		r.scheduleBuildLocked(e)
		return nil, fmt.Errorf("%w: graph %q was evicted, rebuild enqueued", ErrGraphNotReady, name)
	case e.status == StatusFailed && e.err != nil:
		return nil, fmt.Errorf("%w: graph %q build failed: %w", ErrGraphNotReady, name, e.err)
	default:
		return nil, fmt.Errorf("%w: graph %q is %s", ErrGraphNotReady, name, e.status)
	}
}

// Dist serves Engine.Dist for the named graph.
func (r *Registry) Dist(name string, source int32) ([]float64, error) {
	h, err := r.Acquire(name)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	d, err := h.Engine().Dist(source)
	if err == nil {
		r.auditDist(context.Background(), name, h, source, d)
	}
	return d, err
}

// DistTo serves Engine.DistTo for the named graph.
func (r *Registry) DistTo(name string, source, target int32) (float64, error) {
	h, err := r.Acquire(name)
	if err != nil {
		return 0, err
	}
	defer h.Release()
	return h.Engine().DistTo(source, target)
}

// Path serves Engine.Path for the named graph.
func (r *Registry) Path(name string, u, v int32) ([]int32, float64, error) {
	h, err := r.Acquire(name)
	if err != nil {
		return nil, 0, err
	}
	defer h.Release()
	path, length, err := h.Engine().Path(u, v)
	if err == nil {
		r.auditPath(context.Background(), name, h, u, v, path, length)
	}
	return path, length, err
}

// Tree serves Engine.Tree for the named graph.
func (r *Registry) Tree(name string, source int32) (*Tree, error) {
	h, err := r.Acquire(name)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return h.Engine().Tree(source)
}

// MultiSource serves Engine.MultiSource for the named graph.
func (r *Registry) MultiSource(name string, sources []int32) ([][]float64, error) {
	h, err := r.Acquire(name)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return h.Engine().MultiSource(sources)
}

// Matrix serves the many-to-many distance matrix for the named graph.
// Backends that do not implement MatrixBackend get ErrUnsupported.
func (r *Registry) Matrix(name string, sources, targets []int32) ([][]float64, error) {
	h, err := r.Acquire(name)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	mb, ok := h.Engine().(MatrixBackend)
	if !ok {
		return nil, fmt.Errorf("%w: matrix", ErrUnsupported)
	}
	rows, err := mb.Matrix(sources, targets)
	if err == nil {
		r.auditMatrix(context.Background(), name, h, sources, targets, rows)
	}
	return rows, err
}

// WaitReady blocks until the named graph is ready (nil), its build fails
// (the build error), or ctx is done (ctx.Err()). A graph that fails and is
// then reloaded successfully still resolves to nil on the later build.
// Waiting counts as demand: an evicted graph's rebuild is enqueued, so
// WaitReady doubles as the warm-up call for cold graphs.
func (r *Registry) WaitReady(ctx context.Context, name string) error {
	for {
		e, err := r.lookup(name)
		if err != nil {
			return err
		}
		e.mu.Lock()
		if e.status == StatusEvicted && !e.building {
			r.scheduleBuildLocked(e)
		}
		status, berr, ch := e.status, e.err, e.changed
		e.mu.Unlock()
		switch status {
		case StatusReady:
			return nil
		case StatusFailed:
			return berr
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// GraphInfo is a point-in-time description of one registered graph.
type GraphInfo struct {
	Name    string      `json:"name"`
	Status  GraphStatus `json:"status"`
	Version int64       `json:"version"`
	// Reloading reports a build in flight while a previous version keeps
	// serving (hot reload); Status stays "ready".
	Reloading bool   `json:"reloading,omitempty"`
	Error     string `json:"error,omitempty"`
	// Progress is the latest build-progress report while building.
	Progress *BuildProgress `json:"build_progress,omitempty"`

	N           int `json:"n,omitempty"`
	HopsetEdges int `json:"hopset_edges,omitempty"`
	// Shards is the shard count of a sharded backend (0 = monolithic).
	Shards      int   `json:"shards,omitempty"`
	MemoryBytes int64 `json:"memory_bytes,omitempty"`
	Queries     int64 `json:"queries"`
	LastUsed    int64 `json:"last_used,omitempty"` // logical clock tick
}

// Info describes one graph.
func (r *Registry) Info(name string) (GraphInfo, error) {
	e, err := r.lookup(name)
	if err != nil {
		return GraphInfo{}, err
	}
	return r.info(e), nil
}

func (r *Registry) info(e *graphEntry) GraphInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	gi := GraphInfo{
		Name:      e.name,
		Status:    e.status,
		Version:   e.version,
		Reloading: e.building && e.handle != nil,
		Queries:   e.queries.Load(),
		LastUsed:  e.lastUsed.Load(),
	}
	if e.err != nil {
		gi.Error = e.err.Error()
	}
	if e.building {
		p := e.progress
		gi.Progress = &p
	}
	if e.handle != nil {
		eng := e.handle.Engine()
		gi.N = eng.N()
		d := eng.Describe()
		gi.HopsetEdges = d.HopsetEdges
		gi.Shards = d.Shards
		gi.MemoryBytes = eng.MemoryBytes()
	}
	return gi
}

// List describes every registered graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, r.info(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EngineStats returns the engine counters of a graph with a resident
// engine. Unlike Acquire it is a pure read: it does not count as a query,
// does not touch the LRU clock, and never schedules a rebuild — so
// monitoring polls cannot distort eviction order or resurrect cold
// graphs.
func (r *Registry) EngineStats(name string) (Stats, error) {
	e, err := r.lookup(name)
	if err != nil {
		return Stats{}, err
	}
	e.mu.Lock()
	h := e.handle
	if h != nil {
		h.acquire()
	}
	status := e.status
	e.mu.Unlock()
	if h == nil {
		return Stats{}, fmt.Errorf("%w: graph %q is %s", ErrGraphNotReady, name, status)
	}
	defer h.Release()
	return h.Engine().Stats(), nil
}

// RegistryStats aggregates the registry's counters across all graphs.
type RegistryStats struct {
	Graphs   int `json:"graphs"`
	Ready    int `json:"ready"`
	Building int `json:"building"`
	Failed   int `json:"failed"`
	Evicted  int `json:"evicted"`

	Queries      int64 `json:"queries"`
	BuildsDone   int64 `json:"builds_done"`
	BuildsFailed int64 `json:"builds_failed"`
	Reloads      int64 `json:"reloads"`
	Evictions    int64 `json:"evictions"`
	// Draining counts retired engine versions still pinned by in-flight
	// queries.
	Draining int64 `json:"draining"`

	MemoryBytes  int64 `json:"memory_bytes"`
	MemoryBudget int64 `json:"memory_budget,omitempty"`

	// HotPair is the hot-pair result cache snapshot (nil when disabled).
	HotPair *HotPairStats `json:"hot_pair,omitempty"`
}

// Stats returns the aggregate registry counters.
func (r *Registry) Stats() RegistryStats {
	st := RegistryStats{
		Queries:      r.queries.Load(),
		BuildsDone:   r.buildsDone.Load(),
		BuildsFailed: r.buildsFailed.Load(),
		Reloads:      r.reloads.Load(),
		Evictions:    r.evictions.Load(),
		Draining:     r.draining.Load(),
		MemoryBudget: r.cfg.MemoryBudget,
	}
	if r.hot != nil {
		hp := r.hotStats()
		st.HotPair = &hp
	}
	for _, gi := range r.List() {
		st.Graphs++
		switch gi.Status {
		case StatusReady:
			st.Ready++
		case StatusBuilding, StatusPending:
			st.Building++
		case StatusFailed:
			st.Failed++
		case StatusEvicted:
			st.Evicted++
		}
		st.MemoryBytes += gi.MemoryBytes
	}
	return st
}

// Close cancels in-flight builds, waits for the build pool to wind down,
// and retires every engine. Queries and mutations after Close return
// ErrRegistryClosed.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.graphs = map[string]*graphEntry{}
	r.mu.Unlock()

	r.buildMu.Lock()
	r.noBuilds = true
	r.buildMu.Unlock()
	r.cancel()
	r.wg.Wait()
	// Drain the audit sink before retiring engines: queued samples hold
	// retained handle leases, and in-flight audits must finish (or be
	// discarded) so no audit worker touches an engine after shutdown.
	if r.cfg.Audit != nil {
		r.cfg.Audit.Drain()
	}
	for _, e := range entries {
		e.mu.Lock()
		old := e.handle
		e.handle = nil
		e.status = StatusEvicted
		e.notifyLocked()
		e.mu.Unlock()
		if old != nil {
			r.draining.Add(1)
			old.Release()
		}
	}
}
