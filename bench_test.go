// Benchmarks regenerating every experiment of EXPERIMENTS.md (E1–E17; run
// with -benchtime=1x — each iteration performs a full sweep), plus
// micro-benchmarks of the substrate operations. Metrics reported via
// b.ReportMetric are the headline numbers recorded in EXPERIMENTS.md; the
// full tables print under -v.
package repro_test

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/adj"
	"repro/internal/baseline"
	"repro/internal/conncomp"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/hopset"
	"repro/internal/limbfs"
	"repro/internal/pathrep"
	"repro/internal/pram"
	"repro/internal/psort"
	"repro/internal/relax"
	"repro/internal/scaling"
	"repro/internal/testkit"
	"repro/oracle"
)

var benchCfg = harness.Config{Quick: true, Seed: 1}

// parseCell converts a numeric table cell.
func parseCell(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// colIndex finds a column by name (-1 if absent).
func colIndex(t *harness.Table, name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

func reportWorst(b *testing.B, t *harness.Table, col, metric string) {
	b.Helper()
	idx := colIndex(t, col)
	if idx < 0 {
		return
	}
	worst := 0.0
	for _, r := range t.Rows {
		if v := parseCell(r[idx]); !math.IsNaN(v) && v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, metric)
}

func runExperiment(b *testing.B, run func(harness.Config) *harness.Table) *harness.Table {
	b.Helper()
	var t *harness.Table
	for i := 0; i < b.N; i++ {
		t = run(benchCfg)
	}
	b.Log("\n" + t.String())
	okCol := colIndex(t, "ok")
	if okCol < 0 {
		okCol = colIndex(t, "valid")
	}
	if okCol >= 0 {
		for _, r := range t.Rows {
			if r[okCol] == "FAIL" {
				b.Fatalf("%s: failing row %v", t.ID, r)
			}
		}
	}
	return t
}

func BenchmarkE1HopsetSize(b *testing.B) {
	t := runExperiment(b, harness.E1HopsetSize)
	reportWorst(b, t, "|H|/bound", "size/bound")
}

func BenchmarkE2Stretch(b *testing.B) {
	t := runExperiment(b, harness.E2Stretch)
	reportWorst(b, t, "max stretch", "max-stretch")
}

func BenchmarkE3Work(b *testing.B) {
	t := runExperiment(b, harness.E3Work)
	reportWorst(b, t, "fit exp", "work-exponent")
}

func BenchmarkE4SSSP(b *testing.B) {
	t := runExperiment(b, harness.E4SSSP)
	reportWorst(b, t, "max stretch", "max-stretch")
}

func BenchmarkE5Depth(b *testing.B) {
	t := runExperiment(b, harness.E5Depth)
	reportWorst(b, t, "depth/log³n", "depth/log3n")
}

func BenchmarkE6Phases(b *testing.B)  { runExperiment(b, harness.E6Phases) }
func BenchmarkE13Radii(b *testing.B)  { runExperiment(b, harness.E13Radii) }
func BenchmarkE14Ledger(b *testing.B) { runExperiment(b, harness.E14Ledger) }

func BenchmarkE7Stars(b *testing.B) {
	t := runExperiment(b, harness.E7Stars)
	reportWorst(b, t, "|S|/(n·log n)", "stars/bound")
}

func BenchmarkE8PathReport(b *testing.B) {
	t := runExperiment(b, harness.E8PathReport)
	reportWorst(b, t, "max stretch", "max-stretch")
}

func BenchmarkE9KleinSairam(b *testing.B) {
	t := runExperiment(b, harness.E9KleinSairam)
	reportWorst(b, t, "max stretch", "max-stretch")
}

func BenchmarkE10Derand(b *testing.B) {
	t := runExperiment(b, harness.E10Derand)
	reportWorst(b, t, "max stretch", "max-stretch")
}

func BenchmarkE11HopReduction(b *testing.B) {
	t := runExperiment(b, harness.E11HopReduction)
	reportWorst(b, t, "speedup", "hop-speedup")
}

func BenchmarkE12Speedup(b *testing.B) {
	t := runExperiment(b, harness.E12Speedup)
	reportWorst(b, t, "speedup", "wall-speedup")
}

func BenchmarkE15WeightModes(b *testing.B) {
	t := runExperiment(b, harness.E15WeightModes)
	reportWorst(b, t, "|H|", "edges")
}

func BenchmarkE16BetaSensitivity(b *testing.B) {
	t := runExperiment(b, harness.E16BetaSensitivity)
	reportWorst(b, t, "max stretch", "max-stretch")
}

func BenchmarkE17Oracle(b *testing.B) { runExperiment(b, harness.E17Oracle) }

// --- Micro-benchmarks of the substrates and core operations. ---

func benchGraph(n int) *graph.Graph {
	return testkit.Dense(n, 42)
}

func BenchmarkHopsetBuild(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			g := benchGraph(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25}, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(h.Size()), "edges")
			}
		})
	}
}

func BenchmarkHopsetBuildPathReporting(b *testing.B) {
	g := benchGraph(256)
	for i := 0; i < b.N; i++ {
		if _, err := hopset.Build(g, hopset.Params{Epsilon: 0.25, RecordPaths: true}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKleinSairamBuild(b *testing.B) {
	g := testkit.Wide(256, 42)
	for i := 0; i < b.N; i++ {
		if _, err := scaling.Build(g, scaling.Params{Epsilon: 0.5}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryApproxSSSP(b *testing.B) {
	g := benchGraph(1024)
	h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25}, nil)
	if err != nil {
		b.Fatal(err)
	}
	a := adj.Build(h.G, h.Extras())
	budget := h.Sched.HopBudget() * (h.Sched.Ell + 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relax.Run(a, []int32{int32(i % g.N)}, budget, relax.Options{})
	}
}

func BenchmarkQueryDijkstraBaseline(b *testing.B) {
	g := benchGraph(1024)
	a := adj.Build(g, nil)
	for i := 0; i < b.N; i++ {
		exact.Dijkstra(a, int32(i%g.N))
	}
}

func BenchmarkSPTExtraction(b *testing.B) {
	g := benchGraph(256)
	h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25, RecordPaths: true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathrep.BuildSPT(h, int32(i%g.N), 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandHopsetBaseline(b *testing.B) {
	g := benchGraph(256)
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.RandHopset(g, baseline.RandHopsetParams{Epsilon: 0.25, Seed: 1}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConnComp(b *testing.B) {
	g := benchGraph(4096)
	for i := 0; i < b.N; i++ {
		conncomp.Build(g, math.Inf(1), nil)
	}
}

func BenchmarkParallelSort(b *testing.B) {
	n := 1 << 18
	base := make([]int64, n)
	for i := range base {
		base[i] = int64((i * 2654435761) % 1000003)
	}
	buf := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		psort.Sort(buf, func(a, b int64) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}, nil)
	}
}

// BenchmarkRelaxDenseVsSparse compares the dense reference kernel against
// the adaptive frontier-sparse engine on the workloads the engine exists
// for (narrow-frontier single-source scans) and on a dense random graph
// (where the engine should fall back to dense rounds and lose nothing).
// With BENCH_RELAX_JSON=<path> it writes the measurements as JSON — the
// CI benchmark job uploads that file as the BENCH_relax artifact.
func BenchmarkRelaxDenseVsSparse(b *testing.B) {
	type measurement struct {
		Workload     string  `json:"workload"`
		N            int     `json:"n"`
		Arcs         int     `json:"arcs"`
		Rounds       int     `json:"rounds"`
		DenseMS      float64 `json:"dense_ms"`
		SparseMS     float64 `json:"sparse_ms"`
		DenseArcs    int64   `json:"dense_scanned_arcs"`
		SparseArcs   int64   `json:"sparse_scanned_arcs"`
		ArcReduction float64 `json:"arc_reduction"`
		Speedup      float64 `json:"wall_speedup"`
	}
	workloads := []testkit.NamedGraph{
		{Name: "grid-128x128", G: testkit.Grid(128*128, 7)},
		{Name: "roadnet-96x96", G: testkit.Grid(96*96, 7)},
		{Name: "gnm-8192", G: testkit.Dense(8192, 42)},
	}
	var out []measurement
	for _, wl := range workloads {
		a := adj.Build(wl.G, nil)
		src := []int32{int32(wl.G.N / 3)}
		var m measurement
		b.Run(wl.Name, func(b *testing.B) {
			var denseNS, sparseNS int64
			var dense, sparse *relax.Result
			for i := 0; i < b.N; i++ {
				start := time.Now()
				dense = relax.Run(a, src, wl.G.N, relax.Options{ForceDense: true})
				denseNS += time.Since(start).Nanoseconds()
				start = time.Now()
				sparse = relax.Run(a, src, wl.G.N, relax.Options{})
				sparseNS += time.Since(start).Nanoseconds()
			}
			for v := 0; v < wl.G.N; v++ {
				if dense.Dist[v] != sparse.Dist[v] || dense.Parent[v] != sparse.Parent[v] ||
					dense.ParentArc[v] != sparse.ParentArc[v] {
					b.Fatalf("vertex %d: sparse result differs from dense", v)
				}
			}
			m = measurement{
				Workload:     wl.Name,
				N:            wl.G.N,
				Arcs:         a.Arcs(),
				Rounds:       dense.Rounds,
				DenseMS:      float64(denseNS) / float64(b.N) / 1e6,
				SparseMS:     float64(sparseNS) / float64(b.N) / 1e6,
				DenseArcs:    dense.Stats.ScannedArcs,
				SparseArcs:   sparse.Stats.ScannedArcs,
				ArcReduction: float64(dense.Stats.ScannedArcs) / math.Max(1, float64(sparse.Stats.ScannedArcs)),
				Speedup:      float64(denseNS) / math.Max(1, float64(sparseNS)),
			}
			b.ReportMetric(m.ArcReduction, "arc-reduction")
			b.ReportMetric(m.Speedup, "wall-speedup")
		})
		if m.N != 0 { // zero when -bench filtering skipped this workload
			out = append(out, m)
		}
	}
	if path := os.Getenv("BENCH_RELAX_JSON"); path != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// mergeBenchJSON writes value under key into the JSON object at path,
// keeping whatever other benchmarks already wrote there — the two batch
// benchmarks share one BENCH_batch.json artifact regardless of -bench
// filtering or run order.
func mergeBenchJSON(b *testing.B, path, key string, value any) {
	b.Helper()
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			b.Fatalf("%s holds non-object JSON: %v", path, err)
		}
	}
	raw, err := json.Marshal(value)
	if err != nil {
		b.Fatal(err)
	}
	doc[key] = raw
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// blockSources returns k sources packed into a compact block of a
// side×side grid — the ETA-matrix shape (all depots in one district),
// where the batch's 64 waves move in near lock-step and the shared
// traversal pays off most.
func blockSources(side, k int) []int32 {
	out := make([]int32, 0, k)
	for r := 0; len(out) < k; r++ {
		for c := 0; c < 8 && len(out) < k; c++ {
			out = append(out, int32((side/2+r)*side+side/2+c))
		}
	}
	return out
}

// spreadSources returns k sources scattered across [0, n) — the
// worst case for wave overlap, kept as an honest lower bound.
func spreadSources(n, k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = int32((i * 131) % n)
	}
	return out
}

// BenchmarkRelaxBatchedVsSequential measures the word-parallel batched
// kernel against 64 sequential single-source runs, and the hopset build
// with the lane path on vs off. Three kernel workloads: a clustered
// source block on a grid (the coalesced-serve shape the ≥4× arc-reduction
// claim is about), spread sources on the same grid (waves overlap barely
// — expect ~1.7×, reported as the honest lower bound), and a gnm expander
// as the negative control (arcs collapse but nearly every vertex is
// re-folded per round, so the wall-clock win is modest). With
// BENCH_BATCH_JSON=<path> the measurements merge into the BENCH_batch
// artifact that cmd/benchgate checks against the committed baseline.
func BenchmarkRelaxBatchedVsSequential(b *testing.B) {
	type kernelRow struct {
		Workload     string  `json:"workload"`
		N            int     `json:"n"`
		Arcs         int     `json:"arcs"`
		Batch        int     `json:"batch"`
		SeqArcs      int64   `json:"sequential_scanned_arcs"`
		BatArcs      int64   `json:"batched_scanned_arcs"`
		SeqMS        float64 `json:"sequential_ms"`
		BatMS        float64 `json:"batched_ms"`
		ArcReduction float64 `json:"arc_reduction"`
		WallSpeedup  float64 `json:"wall_speedup"`
	}
	type buildRow struct {
		Family       string  `json:"family"`
		N            int     `json:"n"`
		RecordMS     float64 `json:"record_ms"`
		LaneMS       float64 `json:"lane_ms"`
		BuildSpeedup float64 `json:"build_speedup"`
	}

	const k = relax.MaxBatch
	gridN := 128 * 128
	grid := testkit.Grid(gridN, 7)
	gnm := testkit.Dense(8192, 42)
	workloads := []struct {
		name    string
		g       *graph.Graph
		sources []int32
	}{
		{"grid-block", grid, blockSources(128, k)},
		{"grid-spread", grid, spreadSources(gridN, k)},
		{"gnm-spread", gnm, spreadSources(gnm.N, k)},
	}
	var kernel []kernelRow
	for _, wl := range workloads {
		a := adj.Build(wl.g, nil)
		var row kernelRow
		b.Run("kernel/"+wl.name, func(b *testing.B) {
			var seqNS, batNS, seqArcs, batArcs int64
			var seq []*relax.Result
			var bat []*relax.Result
			for i := 0; i < b.N; i++ {
				seq = seq[:0]
				seqArcs, batArcs = 0, 0
				start := time.Now()
				for _, s := range wl.sources {
					r := relax.Run(a, []int32{s}, wl.g.N, relax.Options{})
					seqArcs += r.Stats.ScannedArcs
					seq = append(seq, r)
				}
				seqNS += time.Since(start).Nanoseconds()

				var ctr relax.Counters
				start = time.Now()
				bat = relax.RunBatch(a, wl.sources, wl.g.N, relax.Options{Counters: &ctr})
				batNS += time.Since(start).Nanoseconds()
				batArcs = ctr.Snapshot().ScannedArcs
			}
			// Spot-check bit-identity on the last iteration (the full
			// property matrix lives in internal/relax).
			for l := range bat {
				for v := 0; v < wl.g.N; v += 97 {
					if bat[l].Dist[v] != seq[l].Dist[v] || bat[l].Parent[v] != seq[l].Parent[v] {
						b.Fatalf("%s lane %d vertex %d: batched differs from sequential", wl.name, l, v)
					}
				}
			}
			row = kernelRow{
				Workload: wl.name, N: wl.g.N, Arcs: a.Arcs(), Batch: k,
				SeqArcs: seqArcs, BatArcs: batArcs,
				SeqMS:        float64(seqNS) / float64(b.N) / 1e6,
				BatMS:        float64(batNS) / float64(b.N) / 1e6,
				ArcReduction: float64(seqArcs) / math.Max(1, float64(batArcs)),
				WallSpeedup:  float64(seqNS) / math.Max(1, float64(batNS)),
			}
			b.ReportMetric(row.ArcReduction, "arc-reduction")
			b.ReportMetric(row.WallSpeedup, "wall-speedup")
		})
		if row.N != 0 {
			kernel = append(kernel, row)
		}
	}

	families := []testkit.NamedGraph{
		{Name: "grid-2304", G: testkit.Grid(48*48, 7)},
		{Name: "dense-768", G: testkit.Dense(768, 42)},
	}
	var builds []buildRow
	for _, fam := range families {
		var row buildRow
		b.Run("hopset-build/"+fam.Name, func(b *testing.B) {
			defer func() { limbfs.DisableLanes = false }()
			var recNS, laneNS int64
			for i := 0; i < b.N; i++ {
				limbfs.DisableLanes = true
				start := time.Now()
				if _, err := hopset.Build(fam.G, hopset.Params{Epsilon: 0.25}, nil); err != nil {
					b.Fatal(err)
				}
				recNS += time.Since(start).Nanoseconds()
				limbfs.DisableLanes = false
				start = time.Now()
				if _, err := hopset.Build(fam.G, hopset.Params{Epsilon: 0.25}, nil); err != nil {
					b.Fatal(err)
				}
				laneNS += time.Since(start).Nanoseconds()
			}
			row = buildRow{
				Family: fam.Name, N: fam.G.N,
				RecordMS:     float64(recNS) / float64(b.N) / 1e6,
				LaneMS:       float64(laneNS) / float64(b.N) / 1e6,
				BuildSpeedup: float64(recNS) / math.Max(1, float64(laneNS)),
			}
			b.ReportMetric(row.BuildSpeedup, "build-speedup")
		})
		if row.N != 0 {
			builds = append(builds, row)
		}
	}

	if path := os.Getenv("BENCH_BATCH_JSON"); path != "" {
		if len(kernel) > 0 {
			mergeBenchJSON(b, path, "kernel", kernel)
		}
		if len(builds) > 0 {
			mergeBenchJSON(b, path, "hopset_build", builds)
		}
	}
}

// BenchmarkServeCoalescedQPS measures end-to-end query throughput of an
// oracle engine with the coalescing window on vs off: 32 goroutines
// hammer Dist over 48 distinct sources with the distance cache disabled,
// so every query costs an exploration unless the batcher merges it. The
// coalesced engine answers whole bursts with a handful of word-parallel
// batched explorations; qps-speedup is the headline. Results merge into
// the same BENCH_batch.json as the kernel benchmark.
func BenchmarkServeCoalescedQPS(b *testing.B) {
	type serveRow struct {
		N            int     `json:"n"`
		Goroutines   int     `json:"goroutines"`
		Sources      int     `json:"sources"`
		Queries      int     `json:"queries"`
		SoloQPS      float64 `json:"solo_qps"`
		CoalescedQPS float64 `json:"coalesced_qps"`
		QPSSpeedup   float64 `json:"qps_speedup"`
		Batches      int64   `json:"batches"`
		BatchedSeeds int64   `json:"batched_seeds"`
		LargestBatch int64   `json:"largest_batch"`
		AvgWaitMS    float64 `json:"avg_wait_ms"`
	}
	const (
		goroutines = 32
		nSources   = 48
		perG       = 6 // queries per goroutine per iteration
	)
	g := testkit.Grid(64*64, 7)
	solo, err := oracle.New(g, oracle.WithDistCache(-1))
	if err != nil {
		b.Fatal(err)
	}
	coal, err := oracle.New(g, oracle.WithDistCache(-1), oracle.WithBatchWindow(2*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	sources := spreadSources(g.N, nSources)
	storm := func(eng *oracle.Engine) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < perG; q++ {
					if _, err := eng.Dist(sources[(w*perG+q)%nSources]); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}

	var soloNS, coalNS int64
	for i := 0; i < b.N; i++ {
		soloNS += storm(solo).Nanoseconds()
		coalNS += storm(coal).Nanoseconds()
	}
	queries := goroutines * perG
	st := coal.Stats()
	row := serveRow{
		N: g.N, Goroutines: goroutines, Sources: nSources, Queries: queries,
		SoloQPS:      float64(queries) * float64(b.N) / (float64(soloNS) / 1e9),
		CoalescedQPS: float64(queries) * float64(b.N) / (float64(coalNS) / 1e9),
		Batches:      st.Batches,
		BatchedSeeds: st.Relax.BatchedSeeds,
		LargestBatch: st.LargestBatch,
	}
	row.QPSSpeedup = row.CoalescedQPS / math.Max(1, row.SoloQPS)
	if st.BatchedQueries > 0 {
		row.AvgWaitMS = float64(st.BatchWaitNano) / float64(st.BatchedQueries) / 1e6
	}
	b.ReportMetric(row.CoalescedQPS, "coalesced-qps")
	b.ReportMetric(row.QPSSpeedup, "qps-speedup")
	if path := os.Getenv("BENCH_BATCH_JSON"); path != "" {
		mergeBenchJSON(b, path, "serve", row)
	}
}

func BenchmarkBellmanFordRound(b *testing.B) {
	g := benchGraph(4096)
	a := adj.Build(g, nil)
	for i := 0; i < b.N; i++ {
		relax.Run(a, []int32{0}, 20, relax.Options{})
	}
}

func BenchmarkTrackerOverhead(b *testing.B) {
	tr := pram.New()
	for i := 0; i < b.N; i++ {
		tr.Rounds(1, 100)
	}
}
