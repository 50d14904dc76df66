package main

import (
	"context"
	"math"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/adj"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/pram"
	"repro/oracle"
)

// probeIn is what a traced run hands the layer probe.
type probeIn struct {
	g         *graph.Graph    // the decoded input graph
	hop       *hopset.Hopset  // the hopset of the traced build
	buildOpts []oracle.Option // build options of the set-up builds
	bt        *buildTrace     // the traced set-up build

	snapPath  string
	snapBytes int64
	saveMs    float64

	srv     *server // the serving stack; nil = serve a snapshot engine for the replay
	queries []query // seeded sample of the workload's queries, replayed top-down
	unseen  []int32 // sources replayed on the miss path
	want    func(query) float64
}

// probe measures each layer from outside by timing calls to its public
// functions: the traced build's ledger, a build at one worker, adj, the
// snapshot codec, cold queries against exact Dijkstra, and a top-down
// replay of sampled queries on the hit path (HTTP over loopback → HTTP
// handler in memory → Registry.DistToSWR → Registry.Acquire →
// Engine.DistTo). A layer's self time is its time minus the next layer's.
func probe(cfg config, in probeIn, rep *report, tr *tracer, parent int) error {
	ph := tr.begin("probe", parent)
	defer tr.end(ph)
	bt, h := in.bt, in.hop

	rep.addLayer("graphio.decode_ms", "ms", bt.decodeMs)
	rep.addLayer("hopset.build_ms", "ms", bt.hopsetMs)
	rep.addLayer("hopset.scale_ms_p50", "ms", median(bt.scaleMs))
	rep.addLayer("hopset.scale_ms_max", "ms", quantile(bt.scaleMs, 1))
	var clusters, small int
	for _, st := range h.Stats {
		clusters += st.Clusters
		if st.Clusters <= 64 {
			small++
		}
	}
	rep.addLayer("hopset.scales", "count", float64(h.Sched.Lambda-h.Sched.K0+1))
	rep.addLayer("hopset.phases", "count", float64(len(h.Stats)))
	rep.addLayer("hopset.clusters_sum", "count", float64(clusters))
	rep.addLayer("hopset.phase_le64_frac", "fraction", frac(int64(small), int64(len(h.Stats))))
	rep.addLayer("pram.work", "count", float64(bt.counts.Work))
	rep.addLayer("pram.depth", "count", float64(bt.counts.Depth))
	rep.addLayer("go.build_alloc_mb", "MB", bt.allocMB)
	rep.addLayer("go.build_gc_cycles", "count", float64(bt.gcCycles))

	// The same build at one worker; its PRAM ledger must not depend on
	// the worker count.
	sp := tr.begin("build.one_worker", ph)
	prev := par.SetWorkers(1)
	one := pram.New()
	t0 := time.Now()
	_, err := oracle.New(in.g, append(append([]oracle.Option{}, in.buildOpts...), oracle.WithTracker(one))...)
	oneMs := ms(time.Since(t0))
	par.SetWorkers(prev)
	tr.end(sp)
	if err != nil {
		return err
	}
	rep.addLayer("par.build_speedup", "ratio", oneMs/bt.newMs)
	if c := one.Snapshot(); c.Work != bt.counts.Work || c.Depth != bt.counts.Depth {
		rep.note("pram ledger differs between 1 and %d workers: %v vs %v", prev, c, bt.counts)
	}

	var adjMs []float64
	for range 3 {
		t := time.Now()
		adj.Build(h.G, h.Extras())
		adjMs = append(adjMs, ms(time.Since(t)))
	}
	rep.addLayer("adj.build_ms", "ms", median(adjMs))

	rep.addLayer("oracle.snapshot_bytes", "bytes", float64(in.snapBytes))
	rep.addLayer("oracle.snapshot_save_ms", "ms", in.saveMs)
	var loadMs []float64
	var qe *oracle.Engine
	for range 3 {
		t := time.Now()
		e, err := loadSnapshot(in.snapPath, oracle.WithDistCache(engineLRU))
		if err != nil {
			return err
		}
		loadMs = append(loadMs, ms(time.Since(t)))
		qe = e
	}
	rep.addLayer("oracle.snapshot_load_ms", "ms", median(loadMs))

	// Miss path: cold core queries on a fresh, otherwise idle engine, and
	// exact Dijkstra on the same sources.
	sp = tr.begin("cold", ph)
	sol := qe.Solver()
	a := adj.Build(in.g, nil)
	rs0 := sol.RelaxStats()
	var coldMs, dijMs []float64
	var coldTotal time.Duration
	for i, s := range in.unseen {
		t := time.Now()
		d, err := sol.ApproxDistances(s)
		t1 := time.Now()
		ex, _ := exact.Dijkstra(a, s)
		t2 := time.Now()
		if err != nil {
			return err
		}
		tr.add("core.ApproxDistances", sp, int64(i), t, t1)
		tr.add("exact.Dijkstra", sp, int64(i), t1, t2)
		coldTotal += t1.Sub(t)
		coldMs = append(coldMs, ms(t1.Sub(t)))
		dijMs = append(dijMs, ms(t2.Sub(t1)))
		_, bad := stretchCheck(d, ex)
		rep.answer(bad < 0, "cold source %d: vertex %d outside [exact, (1+ε)·exact]", s, bad)
	}
	tr.end(sp)
	rs1 := sol.RelaxStats()
	arcs := rs1.ScannedArcs - rs0.ScannedArcs
	rounds := (rs1.DenseRounds - rs0.DenseRounds) + (rs1.SparseRounds - rs0.SparseRounds)
	rep.addLayer("core.cold_dist_ms_p50", "ms", median(coldMs))
	rep.addLayer("relax.arcs_per_query", "count", float64(arcs)/float64(rs1.Explorations-rs0.Explorations))
	rep.addLayer("relax.ns_per_arc", "ns", float64(coldTotal.Nanoseconds())/float64(arcs))
	rep.addLayer("relax.dense_round_frac", "fraction", frac(rs1.DenseRounds-rs0.DenseRounds, rounds))
	rep.addLayer("exact.dijkstra_ms_p50", "ms", median(dijMs))
	rep.addLayer("core.cold_over_dijkstra", "ratio", median(coldMs)/median(dijMs))

	// Hit path: replay sampled queries top-down with every cache warm.
	srv := in.srv
	if srv == nil {
		srv = newServer(cfg)
		defer srv.close()
		if err := srv.reg.AddReady(graphName, qe); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := srv.reg.WaitReady(ctx, graphName)
		cancel()
		if err != nil {
			return err
		}
	}
	sp = tr.begin("replay", ph)
	var loop, handler, swr, acquire, engine []float64
	for i, q := range in.queries {
		id := int64(i)
		want := in.want(q)
		if _, _, _, err := srv.reg.DistToSWR(graphName, q.s, q.t); err != nil {
			return err
		}
		h, err := srv.reg.Acquire(graphName)
		if err != nil {
			return err
		}
		if _, err := h.Engine().Dist(q.s); err != nil {
			h.Release()
			return err
		}
		h.Release()

		t := time.Now()
		r, err := srv.cl.dist(q)
		loop = append(loop, us(tr.addSince("http.loopback", sp, id, t)))
		rep.answer(err == nil && sameValue(r.value(), want), "replay loopback dist(%d,%d): %v", q.s, q.t, err)

		req := httptest.NewRequest("GET", "/graphs/"+graphName+"/dist?source="+strconv.Itoa(int(q.s))+"&target="+strconv.Itoa(int(q.t)), nil)
		rec := httptest.NewRecorder()
		t = time.Now()
		srv.h.ServeHTTP(rec, req)
		handler = append(handler, us(tr.addSince("http.handler", sp, id, t)))
		rep.answer(rec.Code == 200, "replay handler dist(%d,%d): status %d", q.s, q.t, rec.Code)

		t = time.Now()
		v, _, _, err := srv.reg.DistToSWR(graphName, q.s, q.t)
		swr = append(swr, us(tr.addSince("registry.DistToSWR", sp, id, t)))
		rep.answer(err == nil && sameValue(v, want), "replay DistToSWR(%d,%d) = %v: %v", q.s, q.t, v, err)

		t = time.Now()
		h, err = srv.reg.Acquire(graphName)
		if err != nil {
			return err
		}
		h.Release()
		acquire = append(acquire, us(tr.addSince("registry.Acquire", sp, id, t)))

		h, err = srv.reg.Acquire(graphName)
		if err != nil {
			return err
		}
		t = time.Now()
		v, err = h.Engine().DistTo(q.s, q.t)
		engine = append(engine, us(tr.addSince("engine.DistTo", sp, id, t)))
		h.Release()
		rep.answer(err == nil && sameValue(v, want), "replay DistTo(%d,%d) = %v: %v", q.s, q.t, v, err)
	}
	tr.end(sp)
	rep.addLayer("engine.dist_hit_us_p50", "us", median(engine))
	rep.addLayer("registry.acquire_us_p50", "us", median(acquire))
	rep.addLayer("registry.dist_swr_us_p50", "us", median(swr))
	rep.addLayer("http.handler_us_p50", "us", median(handler))
	rep.addLayer("http.codec_us", "us", median(handler)-median(swr))
	rep.addLayer("net.loopback_us", "us", median(loop)-median(handler))
	rep.note("probe replayed=%d cold=%d one_worker_build_ms=%.1f", len(in.queries), len(in.unseen), oneMs)
	return nil
}

func sameValue(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
