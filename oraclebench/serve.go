package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/graphio"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/testkit"
	"repro/oracle"
	"repro/oracle/audit"
)

// server is one serving stack as cmd/serve assembles it: a registry with
// the hot-pair cache and a shadow auditor, behind the registry HTTP
// handler on a loopback listener.
type server struct {
	reg *oracle.Registry
	aud *audit.Auditor
	h   http.Handler
	ts  *httptest.Server
	cl  *client
}

func newServer(cfg config) *server {
	rc := oracle.RegistryConfig{
		HotPairCache:  cfg.HotCache,
		EngineOptions: []oracle.Option{oracle.WithDistCache(engineLRU), oracle.WithBatchWindow(0)},
	}
	s := &server{aud: audit.New(audit.Config{SampleRate: auditRate})}
	rc.Audit = s.aud
	s.reg = oracle.NewRegistry(rc)
	s.h = oracle.NewRegistryHandler(s.reg)
	s.ts = httptest.NewServer(s.h)
	s.cl = newClient(s.ts.URL)
	return s
}

func (s *server) close() {
	s.cl.close()
	s.ts.Close()
	s.reg.Close()
	s.aud.Close()
}

// start registers the graph, waits until the registry reports it ready
// and asks for the first answer over HTTP.
func (s *server) start(src oracle.EngineSource, q query) (distResp, error) {
	if err := s.reg.Add(graphName, src); err != nil {
		return distResp{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.reg.WaitReady(ctx, graphName); err != nil {
		return distResp{}, err
	}
	return s.cl.dist(q)
}

// runServe is the serve-* workloads: a grid graph served over HTTP from
// its DIMACS file, with seeded one-client and nproc-client traffic and, on
// serve-reload, hot reloads on a fixed schedule.
func runServe(cfg config, dir string, rep *report, tr *tracer, root int) error {
	ph := tr.begin("generate", root)
	path := filepath.Join(dir, "g.gr")
	if err := graphio.EncodeFileAs(path, testkit.Grid(cfg.N, cfg.Seed), graphio.FormatDIMACS); err != nil {
		return err
	}
	g, _, err := graphio.LoadFile(path)
	if err != nil {
		return err
	}
	y := newYardstick(g)
	naive := httptest.NewServer(y.handler())
	defer naive.Close()
	naiveCl := newClient(naive.URL)
	defer naiveCl.close()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := newPicker(rng, g.N)
	latDur := time.Duration(cfg.Seconds * cfg.LatShare * float64(time.Second))
	capDur := time.Duration(cfg.Seconds*float64(time.Second)) - latDur
	latQs := pick.stream(1 << 16)
	warmQs := pick.stream(1 << 14)
	capQs := pick.stream(1 << 16)
	tr.end(ph)

	engOpts := []oracle.Option{oracle.WithEpsilon(epsilon)}
	if cfg.Paths {
		engOpts = append(engOpts, oracle.WithPathReporting())
	}
	first := latQs[0]
	var (
		ref     [][]float64
		stretch float64
		hop     *hopset.Hopset
		bt      *buildTrace
		setups  []float64
		served  *server
	)
	snapPath := filepath.Join(dir, "g.snap")
	var saveMs float64
	check := func(q query, r distResp) error {
		if want := ref[q.s][q.t]; math.Float64bits(r.value()) != math.Float64bits(want) {
			return fmt.Errorf("dist(%d,%d) = %v, want %v", q.s, q.t, r.value(), want)
		}
		return nil
	}
	// Every request of the measured window goes to the served stack and,
	// right beside it, to the naive exact server, whose answer must lie
	// within the stretch bound of the reference.
	pair := func(q query, i int64) outcome {
		return interleave(i, func() outcome { return served.cl.do(q, check) }, func() error {
			r, err := naiveCl.dist(q)
			if err != nil {
				return err
			}
			if _, bad := stretchCheck([]float64{ref[q.s][q.t]}, []float64{r.value()}); bad >= 0 {
				return fmt.Errorf("dist(%d,%d) = %v, exact server says %v", q.s, q.t, ref[q.s][q.t], r.value())
			}
			return nil
		})
	}

	// Set-up: file → Registry.Add(FileSource) → WaitReady → first answer
	// over HTTP, several times; the last stack serves the load.
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		srv := newServer(cfg)
		src := oracle.FileSource(path, engOpts...)
		if tr.on && i == 0 {
			bt = newBuildTrace(tr, root)
			src = bt.source(path, engOpts)
		}
		sp := tr.begin("setup", root)
		start := time.Now()
		r, err := srv.start(src, first)
		el := time.Since(start)
		tr.end(sp)
		if err != nil {
			srv.close()
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, el.Seconds())
		if i == 0 {
			if ref, stretch, hop, err = reference(srv, g, y, rep); err != nil {
				srv.close()
				return err
			}
			sp := tr.begin("snapshot.save", root)
			t := time.Now()
			err = withEngine(srv.reg, func(e *oracle.Engine) error { return saveSnapshot(e, snapPath) })
			saveMs = ms(time.Since(t))
			tr.end(sp)
			if err != nil {
				srv.close()
				return err
			}
		}
		rep.answer(check(first, r) == nil, "set-up %d: first answer: %v", i, check(first, r))
		if i == setupReps-1 {
			served = srv
		} else {
			srv.close()
		}
	}
	defer served.close()
	rep.timing("setup_s", "s", setups)
	rep.addE2E("setup_s", "s", median(setups))
	rep.addE2E("stretch_max", "ratio", stretch)
	rep.addLayer("hopset.edges", "count", float64(hop.Size()))

	// Restart: snapshot file → Registry.Add(SnapshotSource) → first answer.
	var restarts []float64
	for i := 0; i < restartReps; i++ {
		runtime.GC()
		srv := newServer(cfg)
		sp := tr.begin("snapshot.load", root)
		start := time.Now()
		r, err := srv.start(oracle.SnapshotSource(snapPath), first)
		el := time.Since(start)
		tr.end(sp)
		srv.close()
		if err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		restarts = append(restarts, el.Seconds())
		rep.answer(check(first, r) == nil, "restart %d: first answer: %v", i, check(first, r))
	}
	rep.timing("restart_s", "s", restarts)
	rep.addE2E("restart_s", "s", median(restarts))

	// Warm-up, then the measured window: the latency phase with one
	// client, then the capacity phase with nproc clients.
	mon := startMonitor(served)
	sp := tr.begin("warmup", root)
	warm, _ := closedLoop(clients(), cfg.Warmup, tr, sp, 1<<40, func(i int64) outcome {
		return pair(warmQs[i%int64(len(warmQs))], i)
	})
	tr.end(sp)
	for _, o := range warm {
		rep.answer(o.err == nil, "warm-up: %v", o.err)
	}
	hot0 := *served.reg.Stats().HotPair
	info0, err := served.reg.Info(graphName)
	if err != nil {
		return err
	}
	// Reloads are posted during the latency phase only. The capacity
	// phase starts once the last reload has published, so that capacity is
	// not a mixture of build-contended and idle time in proportions that
	// follow the build's speed.
	var rl *reloader
	if cfg.ReloadEvery > 0 {
		rl = startReloader(newClient(served.ts.URL), time.Now(), cfg.ReloadEvery, latDur)
	}
	sp = tr.begin("latency_phase", root)
	lats, _ := closedLoop(1, latDur, tr, sp, 0, func(i int64) outcome {
		return pair(latQs[i%int64(len(latQs))], i)
	})
	tr.end(sp)
	var posts []time.Time
	if rl != nil {
		posts = rl.stop()
		for _, err := range rl.errs {
			rep.answer(false, "reload: %v", err)
		}
		if err := waitQuiet(served.reg); err != nil {
			return err
		}
	}
	sp = tr.begin("capacity_phase", root)
	caps, capEl := closedLoop(clients(), capDur, tr, sp, 1<<41, func(i int64) outcome {
		return pair(capQs[i%int64(len(capQs))], i)
	})
	tr.end(sp)
	seen := mon.stop()
	hot1 := *served.reg.Stats().HotPair
	info1, err := served.reg.Info(graphName)
	if err != nil {
		return err
	}

	// End-to-end metrics.
	traced, untraced, lag := addLoopMetrics(rep, lats, caps)
	var answered, stale int64
	for _, o := range append(lats, caps...) {
		if o.answered {
			answered++
			if o.stale {
				stale++
			}
		}
	}
	rep.addE2E("stale_frac", "fraction", frac(stale, answered))
	rep.note("phase warmup requests=%d", len(warm))
	rep.note("phase latency requests=%d clients=1 duration=%s", len(lats), latDur)
	rep.note("phase capacity requests=%d clients=%d elapsed=%.3fs", len(caps), clients(), capEl.Seconds())

	// Reload publishing: reload k is published when version v0+k+1 first
	// serves.
	published := info1.Version - info0.Version
	if cfg.ReloadEvery > 0 {
		var lags []float64
		for k, t := range posts {
			if at, ok := seen.versions[info0.Version+int64(k)+1]; ok {
				lags = append(lags, at.Sub(t).Seconds())
			}
		}
		rep.timing("reload_publish_s", "s", lags)
		if len(lags) > 0 {
			rep.addE2E("reload_publish_s", "s", median(lags))
		}
		rep.note("phase reload requested=%d published=%d every=%s", len(posts), published, cfg.ReloadEvery)
	}

	// Serving-layer counters.
	hits := (hot1.Hits - hot0.Hits) + (hot1.StaleHits - hot0.StaleHits)
	lookups := hits + hot1.Misses - hot0.Misses
	hitFrac := frac(hits, lookups)
	es, err := served.reg.EngineStats(graphName)
	if err != nil {
		return err
	}
	served.aud.Drain()
	aud := served.aud.Stats()
	rep.addLayer("engine.lru_hit_frac", "fraction", frac(es.DistCache.Hits, es.DistCache.Hits+es.DistCache.Misses))
	rep.addLayer("registry.versions_published", "count", float64(published))
	rep.addLayer("registry.draining_max", "count", float64(seen.drainingMax))
	rep.addLayer("hotcache.hit_frac", "fraction", hitFrac)
	rep.addLayer("hotcache.evictions", "count", float64(hot1.Evictions-hot0.Evictions))
	rep.addLayer("hotcache.stale_hits", "count", float64(hot1.StaleHits-hot0.StaleHits))
	rep.addLayer("hotcache.revalidations", "count", float64(hot1.Revalidations-hot0.Revalidations))
	rep.addLayer("audit.samples", "count", float64(aud.Sampled))
	rep.addLayer("audit.violations", "count", float64(aud.Violations))
	rep.addLayer("audit.pending_max", "count", float64(seen.pendingMax))
	rep.addLayer("loadgen.lag_ms_p99", "ms", quantile(lag, 0.99))
	rep.addLayer("loadgen.sent", "count", float64(len(lats)+len(caps)))
	rep.addLayer("loadgen.completed", "count", float64(answered))
	rep.timing("loadgen.lag_ms", "ms", lag)

	// Preconditions: the run must have exercised the path it names.
	if aud.Violations > 0 {
		rep.problem("precondition: audit.violations = %d", aud.Violations)
	}
	switch cfg.Workload {
	case "serve-zipf":
		if hitFrac < 0.5 || hot1.Evictions == hot0.Evictions {
			rep.problem("precondition: serve-zipf needs hotcache.hit_frac >= 0.5 and evictions > 0 (got %.3f, %d)", hitFrac, hot1.Evictions-hot0.Evictions)
		}
	case "serve-reload":
		if len(posts) == 0 || published < int64(len(posts))-1 || hot1.StaleHits == hot0.StaleHits {
			rep.problem("precondition: serve-reload needs reloads requested >= 1, versions published >= requested-1 and stale hits > 0 (got %d requested, %d published, %d stale hits)",
				len(posts), published, hot1.StaleHits-hot0.StaleHits)
		}
	}
	if !tr.on {
		return nil
	}
	rep.addLayer("trace.overhead_frac", "fraction", median(traced)/median(untraced)-1)
	sample := rand.New(rand.NewSource(cfg.Seed + 1))
	queries := make([]query, probeReplay)
	for i := range queries {
		queries[i] = latQs[sample.Intn(max(1, min(len(lats), len(latQs))))]
	}
	unseen := make([]int32, probeCold)
	for i := range unseen {
		unseen[i] = int32(sample.Intn(g.N))
	}
	return probe(cfg, probeIn{
		g: g, hop: hop, buildOpts: engOpts, bt: bt,
		snapPath: snapPath, snapBytes: fileSize(snapPath), saveMs: saveMs,
		srv: served, queries: queries, unseen: unseen,
		want: func(q query) float64 { return ref[q.s][q.t] },
	}, rep, tr, root)
}

// withEngine runs fn on the graph's current monolithic engine.
func withEngine(reg *oracle.Registry, fn func(*oracle.Engine) error) error {
	h, err := reg.Acquire(graphName)
	if err != nil {
		return err
	}
	defer h.Release()
	e, ok := h.Engine().(*oracle.Engine)
	if !ok {
		return fmt.Errorf("graph %q is not served by a monolithic engine", graphName)
	}
	return fn(e)
}

// reference computes, untimed, the row of every source on the first
// built engine and checks each row against the yardstick's exact row. Served answers
// must equal these rows bit for bit: the engine is deterministic and every
// reload re-reads the same file.
func reference(srv *server, g *graph.Graph, y *yardstick, rep *report) ([][]float64, float64, *hopset.Hopset, error) {
	ref := make([][]float64, g.N)
	var hop *hopset.Hopset
	worst := make([]float64, clients())
	viol := make([]int, g.N) // offending vertex + 1, 0 = row checks out
	err := withEngine(srv.reg, func(e *oracle.Engine) error {
		hop = e.Hopset()
		var wg sync.WaitGroup
		errs := make([]error, clients())
		for c := range clients() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worst[c] = 1
				const batch = 64
				for lo := c * batch; lo < g.N; lo += clients() * batch {
					hi := min(lo+batch, g.N)
					srcs := make([]int32, 0, batch)
					for s := lo; s < hi; s++ {
						srcs = append(srcs, int32(s))
					}
					rows, err := e.MultiSource(srcs)
					if err != nil {
						errs[c] = err
						return
					}
					for j, s := range srcs {
						ref[s] = rows[j]
						w, v := stretchCheck(rows[j], y.dist(s))
						worst[c] = math.Max(worst[c], w)
						viol[s] = v + 1
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, nil, err
	}
	stretch := 1.0
	for c := range worst {
		stretch = math.Max(stretch, worst[c])
	}
	for s, v := range viol {
		rep.answer(v == 0, "source %d: vertex %d outside [exact, (1+ε)·exact]", s, v-1)
	}
	return ref, stretch, hop, nil
}

// monitor polls the registry while load runs: when each version first
// served, the most retired versions still draining, and the deepest audit
// queue.
type monitor struct {
	quit chan struct{}
	done chan struct{}
	seen monitorSeen
}

type monitorSeen struct {
	versions    map[int64]time.Time
	drainingMax int64
	pendingMax  int64
}

func startMonitor(s *server) *monitor {
	m := &monitor{quit: make(chan struct{}), done: make(chan struct{}), seen: monitorSeen{versions: map[int64]time.Time{}}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-m.quit:
				return
			case <-tick.C:
			}
			if gi, err := s.reg.Info(graphName); err == nil {
				if _, ok := m.seen.versions[gi.Version]; !ok {
					m.seen.versions[gi.Version] = time.Now()
				}
			}
			if k%5 == 0 {
				m.seen.drainingMax = max(m.seen.drainingMax, s.reg.Stats().Draining)
				m.seen.pendingMax = max(m.seen.pendingMax, s.aud.Stats().Pending)
			}
		}
	}()
	return m
}

// stop ends the polling and returns what it saw.
func (m *monitor) stop() monitorSeen {
	close(m.quit)
	<-m.done
	return m.seen
}

// reloader posts a hot reload every interval, the first a quarter
// interval after start, while inside the window. The early start leaves
// the last reload's build and the revalidation of the hot rows it made
// stale inside the window.
type reloader struct {
	quit  chan struct{}
	done  chan struct{}
	posts []time.Time
	errs  []error
}

func startReloader(c *client, start time.Time, every, window time.Duration) *reloader {
	r := &reloader{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer c.close()
		for k := 0; ; k++ {
			off := every/4 + time.Duration(k)*every
			if off >= window {
				return
			}
			select {
			case <-r.quit:
				return
			case <-time.After(time.Until(start.Add(off))):
			}
			t := time.Now()
			if err := c.reload(); err != nil {
				r.errs = append(r.errs, err)
				continue
			}
			r.posts = append(r.posts, t)
		}
	}()
	return r
}

// stop ends the schedule and returns the send times of the reloads posted.
func (r *reloader) stop() []time.Time {
	close(r.quit)
	<-r.done
	return r.posts
}

// waitQuiet waits until no reload build is in flight.
func waitQuiet(reg *oracle.Registry) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		gi, err := reg.Info(graphName)
		if err != nil {
			return err
		}
		if !gi.Reloading && gi.Status == oracle.StatusReady {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("graph %q still %s (reloading=%t)", graphName, gi.Status, gi.Reloading)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
