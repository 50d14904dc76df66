package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/graphio"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/oracle"
)

// runBuild is the build-gnm workload: a G(n, m) graph written as DIMACS,
// timed from the file to the first answer and from a snapshot to the
// first answer, then closed loops of cold Dist calls on the built engine,
// each beside the yardstick's Dijkstra from the same source.
func runBuild(cfg config, dir string, rep *report, tr *tracer, root int) error {
	ph := tr.begin("generate", root)
	path := filepath.Join(dir, "g.gr")
	if err := graphio.EncodeFileAs(path, graph.Gnm(cfg.N, cfg.M, graph.UniformWeights(1, 8), cfg.Seed), graphio.FormatDIMACS); err != nil {
		return err
	}
	g, _, err := graphio.LoadFile(path)
	if err != nil {
		return err
	}
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(g.N)
	sources := toInt32(perm[:coldSources])
	unseen := toInt32(perm[coldSources : coldSources+probeCold])
	y := newYardstick(g)
	exactRows := make([][]float64, len(sources))
	for i, s := range sources {
		exactRows[i] = y.dist(s)
	}
	tr.end(ph)

	// Set-up: file → oracle.New → first Dist, several times.
	opts := []oracle.Option{oracle.WithEpsilon(epsilon), oracle.WithDistCache(0)}
	var (
		setups []float64
		ref    [][]float64
		eng    *oracle.Engine
		bt     *buildTrace
	)
	stretch := 1.0
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var rbt *buildTrace
		if tr.on && i == 0 {
			rbt = newBuildTrace(tr, root)
			bt = rbt
		}
		sp := tr.begin("setup", root)
		start := time.Now()
		e, err := loadAndBuild(path, opts, rbt)
		if err != nil {
			return err
		}
		d, err := e.Dist(sources[0])
		el := time.Since(start)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("first Dist: %w", err)
		}
		setups = append(setups, el.Seconds())
		if i == 0 {
			// The reference rows: the 64 seeded cold calls, checked
			// against exact Dijkstra.
			ref = make([][]float64, len(sources))
			for j, s := range sources {
				row, err := e.Dist(s)
				if err != nil {
					return err
				}
				ref[j] = row
				worst, bad := stretchCheck(row, exactRows[j])
				stretch = math.Max(stretch, worst)
				rep.answer(bad < 0, "source %d: vertex %d outside [exact, (1+ε)·exact]", s, bad)
			}
		}
		rep.answer(sameBits(d, ref[0]), "set-up %d: first answer differs from the reference", i)
		eng = e
	}
	rep.timing("setup_s", "s", setups)
	rep.addE2E("setup_s", "s", median(setups))
	rep.addE2E("stretch_max", "ratio", stretch)
	h := eng.Hopset()
	rep.addLayer("hopset.edges", "count", float64(h.Size()))
	if h.Size() == 0 {
		rep.problem("precondition: hopset.edges is 0, the build added no hopset edge")
	}

	// Restart: snapshot file → LoadSnapshot → first Dist.
	snapPath := filepath.Join(dir, "g.snap")
	sp := tr.begin("snapshot.save", root)
	saveStart := time.Now()
	if err := saveSnapshot(eng, snapPath); err != nil {
		return err
	}
	saveMs := ms(time.Since(saveStart))
	tr.end(sp)
	var restarts []float64
	var restarted *oracle.Engine
	for i := 0; i < restartReps; i++ {
		runtime.GC()
		sp := tr.begin("snapshot.load", root)
		start := time.Now()
		e, err := loadSnapshot(snapPath, oracle.WithDistCache(0))
		if err != nil {
			return err
		}
		d, err := e.Dist(sources[0])
		el := time.Since(start)
		tr.end(sp)
		if err != nil {
			return err
		}
		restarts = append(restarts, el.Seconds())
		rep.answer(sameBits(d, ref[0]), "restart %d: first answer differs from the built engine's", i)
		restarted = e
	}
	rep.timing("restart_s", "s", restarts)
	rep.addE2E("restart_s", "s", median(restarts))
	for j, s := range sources {
		d, err := restarted.Dist(s)
		ok := err == nil && sameBits(d, ref[j])
		rep.answer(ok, "precondition: snapshot-restarted engine's row for source %d differs from the built engine's", s)
	}

	// Measured window: cold Dist calls, from one client in the latency
	// phase and from nproc clients in the capacity phase, each beside the
	// yardstick's row from the same source.
	coldDist := func(i int64) outcome {
		j := int(i % int64(len(sources)))
		return interleave(i, func() outcome {
			row, err := eng.Dist(sources[j])
			if err == nil && !sameBits(row, ref[j]) {
				err = fmt.Errorf("source %d: row differs from the reference", sources[j])
			}
			return outcome{answered: err == nil, err: err}
		}, func() error {
			if !sameBits(y.dist(sources[j]), exactRows[j]) {
				return fmt.Errorf("source %d: the yardstick's row changed", sources[j])
			}
			return nil
		})
	}
	latDur := time.Duration(cfg.Seconds * cfg.LatShare * float64(time.Second))
	capDur := time.Duration(cfg.Seconds*float64(time.Second)) - latDur
	sp = tr.begin("latency_phase", root)
	lats, _ := closedLoop(1, latDur, tr, sp, 0, coldDist)
	tr.end(sp)
	sp = tr.begin("capacity_phase", root)
	caps, capEl := closedLoop(clients(), capDur, tr, sp, 1<<41, coldDist)
	tr.end(sp)
	traced, untraced, lag := addLoopMetrics(rep, lats, caps)
	var good int64
	for _, o := range append(lats, caps...) {
		if o.err == nil {
			good++
		}
	}
	rep.addE2E("stale_frac", "fraction", 0)
	rep.note("phase latency cold Dist calls=%d clients=1 duration=%s", len(lats), latDur)
	rep.note("phase capacity cold Dist calls=%d clients=%d elapsed=%.3fs", len(caps), clients(), capEl.Seconds())

	// The serving layers do no work on this workload.
	rep.addLayer("engine.lru_hit_frac", "fraction", 0)
	rep.addLayer("hotcache.hit_frac", "fraction", 0)
	for _, name := range []string{
		"registry.versions_published", "registry.draining_max",
		"hotcache.evictions", "hotcache.stale_hits", "hotcache.revalidations",
		"audit.samples", "audit.violations", "audit.pending_max",
	} {
		rep.addLayer(name, "count", 0)
	}
	rep.addLayer("loadgen.lag_ms_p99", "ms", quantile(lag, 0.99))
	rep.addLayer("loadgen.sent", "count", float64(len(lats)+len(caps)))
	rep.addLayer("loadgen.completed", "count", float64(good))
	if !tr.on {
		return nil
	}
	rep.addLayer("trace.overhead_frac", "fraction", median(traced)/median(untraced)-1)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	queries := make([]query, probeReplay)
	rowOf := make(map[int32]int, len(sources))
	for j, s := range sources {
		rowOf[s] = j
	}
	for i := range queries {
		queries[i] = query{sources[rng.Intn(len(sources))], int32(rng.Intn(g.N))}
	}
	return probe(cfg, probeIn{
		g: g, hop: h, buildOpts: opts, bt: bt,
		snapPath: snapPath, snapBytes: fileSize(snapPath), saveMs: saveMs,
		queries: queries, unseen: unseen,
		want: func(q query) float64 { return ref[rowOf[q.s]][q.t] },
	}, rep, tr, root)
}

// buildTrace records one traced build from the graph file: ingest and
// build spans with a child per hopset scale and an adj span, the PRAM
// ledger at the end of the hopset build, and the Go heap activity.
type buildTrace struct {
	tr     *tracer
	parent int

	decodeMs, hopsetMs, newMs float64
	scaleMs                   []float64
	counts                    pram.Counts
	allocMB                   float64
	gcCycles                  uint32
}

func newBuildTrace(tr *tracer, parent int) *buildTrace { return &buildTrace{tr: tr, parent: parent} }

// loadAndBuild reads the graph file and builds an engine, traced when bt
// is non-nil.
func loadAndBuild(path string, opts []oracle.Option, bt *buildTrace) (*oracle.Engine, error) {
	if bt == nil {
		g, _, err := graphio.LoadFile(path)
		if err != nil {
			return nil, err
		}
		return oracle.New(g, opts...)
	}
	return bt.run(path, opts)
}

// source is the traced counterpart of oracle.FileSource.
func (b *buildTrace) source(path string, opts []oracle.Option) oracle.EngineSource {
	return func(ctx context.Context, extra ...oracle.Option) (oracle.Backend, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return b.run(path, append(append([]oracle.Option{}, opts...), extra...))
	}
}

func (b *buildTrace) run(path string, opts []oracle.Option) (*oracle.Engine, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	g, _, err := graphio.LoadFile(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	b.decodeMs = ms(t1.Sub(t0))
	b.tr.add("ingest", b.parent, -1, t0, t1)
	tracker := pram.New()
	build := b.tr.begin("build", b.parent)
	last := t1
	progress := func(p oracle.BuildProgress) {
		now := time.Now()
		b.scaleMs = append(b.scaleMs, ms(now.Sub(last)))
		b.tr.add(fmt.Sprintf("build.scale %d", p.Scale), build, -1, last, now)
		last = now
		if p.Done {
			b.hopsetMs = ms(now.Sub(t1))
			b.counts = tracker.Snapshot()
		}
	}
	eng, err := oracle.New(g, append(append([]oracle.Option{}, opts...), oracle.WithTracker(tracker), oracle.WithBuildProgress(progress))...)
	t2 := time.Now()
	b.tr.end(build)
	if err != nil {
		return nil, err
	}
	b.tr.add("adj", b.parent, -1, last, t2)
	b.newMs = ms(t2.Sub(t1))
	runtime.ReadMemStats(&m1)
	b.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	b.gcCycles = m1.NumGC - m0.NumGC
	return eng, nil
}

func saveSnapshot(eng *oracle.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := eng.SaveSnapshot(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadSnapshot(path string, opts ...oracle.Option) (*oracle.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return oracle.LoadSnapshot(bufio.NewReader(f), opts...)
}

// stretchCheck compares an approximate row with the exact one: every
// entry must lie in [exact, (1+ε)·exact] up to float rounding. It returns
// the largest approx/exact ratio and the first offending vertex (-1 if
// none).
func stretchCheck(approx, exact []float64) (float64, int) {
	const tol = 1e-9
	worst := 1.0
	for v, e := range exact {
		a := approx[v]
		switch {
		case math.IsInf(e, 1):
			if !math.IsInf(a, 1) {
				return worst, v
			}
		case e == 0:
			if a != 0 {
				return worst, v
			}
		default:
			r := a / e
			if r < 1-tol || r > 1+epsilon+tol {
				return worst, v
			}
			worst = math.Max(worst, r)
		}
	}
	return worst, -1
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
