package hopset

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/adj"
	"repro/internal/bmf"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pram"
	"repro/internal/relax"
	"repro/internal/testkit"
)

func defaultParams() Params {
	return Params{Epsilon: 0.25}
}

func build(t *testing.T, g *graph.Graph, p Params) *Hopset {
	t.Helper()
	h, err := Build(g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkSoundness verifies the no-shortcut invariant (Lemmas 2.3/2.9): no
// hopset edge is lighter than the true distance between its endpoints.
func checkSoundness(t *testing.T, h *Hopset) {
	t.Helper()
	byU := make(map[int32][]Edge)
	for _, e := range h.Edges {
		byU[e.U] = append(byU[e.U], e)
	}
	for u, edges := range byU {
		dist, _ := exact.DijkstraGraph(h.G, u)
		for _, e := range edges {
			if e.W < dist[e.V]-1e-9 {
				t.Fatalf("edge (%d,%d) w=%v below true distance %v (kind=%v scale=%d phase=%d)",
					e.U, e.V, e.W, dist[e.V], e.Kind, e.Scale, e.Phase)
			}
		}
	}
}

// approxBudget is the hop budget at which tests demand (1+ε)-approximate
// distances: one hop-cap worth of rounds per phase level plus slack. The
// theoretical hopbound β of eq. (2) is far larger; meeting the target within
// this much smaller budget is a strictly stronger empirical statement.
func approxBudget(h *Hopset) int {
	return h.Sched.HopBudget() * (h.Sched.Ell + 2)
}

// checkStretch verifies Theorem 3.8's inequality from a handful of sources:
// exact ≤ hop-limited distance in G∪H, and within approxBudget rounds the
// hop-limited distance is ≤ (1+ε)·exact. Returns the worst empirical
// hopbound over the sources.
func checkStretch(t *testing.T, h *Hopset, eps float64) (maxRounds int) {
	t.Helper()
	a := adj.Build(h.G, h.Extras())
	n := h.G.N
	budget := approxBudget(h)
	srcs := []int32{0, int32(n / 3), int32(n - 1)}
	for _, s := range srcs {
		exact, _ := exact.DijkstraGraph(h.G, s)
		// Lower bound (soundness of the union graph): even fully converged
		// distances in G∪H can never undershoot d_G.
		res := relax.Run(a, []int32{s}, n+1, relax.Options{})
		for v := 0; v < n; v++ {
			if math.IsInf(exact[v], 1) {
				if !math.IsInf(res.Dist[v], 1) {
					t.Fatalf("source %d: vertex %d reachable via hopset but not in G", s, v)
				}
				continue
			}
			if res.Dist[v] < exact[v]-1e-9 {
				t.Fatalf("source %d vertex %d: hopset distance %v below exact %v", s, v, res.Dist[v], exact[v])
			}
		}
		// Upper bound within the hop budget.
		r := bmf.RoundsToApprox(a, []int32{s}, exact, eps, budget, nil)
		if r < 0 {
			t.Fatalf("source %d: (1+%v)-approximation not reached within %d rounds", s, eps, budget)
		}
		if r > maxRounds {
			maxRounds = r
		}
	}
	return maxRounds
}

func TestBuildSmallGraphs(t *testing.T) {
	// Small instances of the shared testkit families, including the
	// path/cycle hop-diameter adversaries.
	cases := []testkit.NamedGraph{
		{Name: "path64", G: testkit.Path(64)},
		{Name: "cycle50", G: testkit.Cycle(50, 2)},
		{Name: "grid8x8", G: testkit.Grid(64, 3)},
		{Name: "gnm", G: testkit.Gnm(96, 4)},
		{Name: "tree", G: testkit.Tree(80, 5)},
		{Name: "powerlaw", G: testkit.Social(90, 6)},
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			h := build(t, c.G, defaultParams())
			if err := h.Check(); err != nil {
				t.Fatal(err)
			}
			checkSoundness(t, h)
			checkStretch(t, h, 0.25)
		})
	}
}

// TestBuildCtxProgressAndCancel covers the registry-facing build seam:
// per-scale progress reports and cooperative cancellation.
func TestBuildCtxProgressAndCancel(t *testing.T) {
	g := testkit.Gnm(96, 21)
	var events []Progress
	h, err := BuildCtx(context.Background(), g, defaultParams(), nil, func(p Progress) {
		events = append(events, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress reports")
	}
	last := events[len(events)-1]
	if !last.Done || last.Scale != last.Lambda || last.Edges != h.Size() {
		t.Fatalf("final report %+v for hopset of %d edges", last, h.Size())
	}
	for i, p := range events {
		if p.K0 != h.Sched.K0 || p.Lambda != h.Sched.Lambda {
			t.Fatalf("report %d: range [%d,%d], want [%d,%d]", i, p.K0, p.Lambda, h.Sched.K0, h.Sched.Lambda)
		}
		if i > 0 && p.Scale != events[i-1].Scale+1 {
			t.Fatalf("reports out of order: %+v", events)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCtx(ctx, g, defaultParams(), nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build: %v", err)
	}
	// Cancel mid-build, from the first progress report.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err = BuildCtx(ctx2, g, defaultParams(), nil, func(Progress) { cancel2() })
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel: %v", err)
	}
	if err == nil {
		t.Skip("single-scale schedule: build finished before the cancellation checkpoint")
	}
}

func TestStretchTightensWithEpsilon(t *testing.T) {
	g := graph.Gnm(128, 512, graph.UniformWeights(1, 5), 7)
	for _, eps := range []float64{0.5, 0.25, 0.1} {
		h := build(t, g, Params{Epsilon: eps})
		checkSoundness(t, h)
		checkStretch(t, h, eps)
	}
}

func TestSizeBound(t *testing.T) {
	// Theorem 3.7 / eq. (10): |H| ≤ ⌈log Λ⌉ · n^{1+1/κ}.
	for _, kappa := range []int{2, 3, 4} {
		g := graph.Gnm(256, 1024, graph.UniformWeights(1, 4), 9)
		h := build(t, g, Params{Epsilon: 0.25, Kappa: kappa, Rho: 0.49 / float64(kappa) * 2})
		lambda := float64(h.Sched.Lambda + 1)
		bound := lambda * SizeBound(g.N, kappa)
		if float64(h.Size()) > bound {
			t.Fatalf("κ=%d: size %d exceeds bound %.0f", kappa, h.Size(), bound)
		}
		// Per-scale bound, eq. (9).
		for k, cnt := range h.ScaleSizes() {
			if float64(cnt) > SizeBound(g.N, kappa) {
				t.Fatalf("κ=%d scale %d: %d edges exceed n^{1+1/κ}=%.0f", kappa, k, cnt, SizeBound(g.N, kappa))
			}
		}
	}
}

// TestDeterministicAcrossWorkers requires bit-identical Edges — and, in
// path-reporting mode, identical memory paths step by step — at 1, 2 and
// 8 workers. The unit-weight grid is full of exact ties, so its memory
// paths show whether the limited BFS resolves ties (first offered wins)
// independently of the worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	cases := []struct {
		name string
		g    *graph.Graph
		p    Params
	}{
		{"gnm", graph.Gnm(128, 512, graph.UniformWeights(1, 6), 11), defaultParams()},
		{"gnm-paths", graph.Gnm(128, 512, graph.UniformWeights(1, 6), 11), Params{Epsilon: 0.25, RecordPaths: true}},
		{"grid-paths", graph.Grid(12, 12, graph.UnitWeights(), 1), Params{Epsilon: 0.25, RecordPaths: true}},
	}
	for _, tc := range cases {
		par.SetWorkers(1)
		ref := build(t, tc.g, tc.p)
		for _, w := range []int{2, 8} {
			par.SetWorkers(w)
			h := build(t, tc.g, tc.p)
			if len(h.Edges) != len(ref.Edges) || len(h.Paths) != len(ref.Paths) {
				t.Fatalf("%s workers=%d: %d edges/%d paths vs %d/%d",
					tc.name, w, len(h.Edges), len(h.Paths), len(ref.Edges), len(ref.Paths))
			}
			for i := range ref.Edges {
				if h.Edges[i] != ref.Edges[i] {
					t.Fatalf("%s workers=%d edge %d: %+v vs %+v", tc.name, w, i, h.Edges[i], ref.Edges[i])
				}
			}
			for i := range ref.Paths {
				if len(h.Paths[i]) != len(ref.Paths[i]) {
					t.Fatalf("%s workers=%d path %d: %d steps vs %d", tc.name, w, i, len(h.Paths[i]), len(ref.Paths[i]))
				}
				for j := range ref.Paths[i] {
					if h.Paths[i][j] != ref.Paths[i][j] {
						t.Fatalf("%s workers=%d path %d step %d: %+v vs %+v", tc.name, w, i, j, h.Paths[i][j], ref.Paths[i][j])
					}
				}
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.PowerLaw(100, 3, graph.UniformWeights(1, 3), 13)
	a := build(t, g, defaultParams())
	b := build(t, g, defaultParams())
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("edge counts differ between runs")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs between runs", i)
		}
	}
}

func TestRecordPathsCheck(t *testing.T) {
	g := graph.Gnm(80, 240, graph.UniformWeights(1, 4), 15)
	h := build(t, g, Params{Epsilon: 0.25, RecordPaths: true})
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	if h.Size() > 0 && h.MaxMemoryPathLen() == 0 {
		t.Fatal("paths recorded but max length 0")
	}
	// Tight weights must equal the memory-path weights exactly.
	for i, e := range h.Edges {
		if w := PathWeight(h.Paths[i]); math.Abs(w-e.W) > 1e-6*math.Max(1, e.W) {
			t.Fatalf("edge %d: weight %v but path weight %v", i, e.W, w)
		}
	}
	checkSoundness(t, h)
	checkStretch(t, h, 0.25)
}

func TestStrictWeights(t *testing.T) {
	g := graph.Gnm(64, 200, graph.UnitWeights(), 17)
	h := build(t, g, Params{Epsilon: 0.25, Weights: WeightStrict})
	checkSoundness(t, h) // strict weights are larger, still sound
	// Strict weights are never below tight weights for the same topology.
	ht := build(t, g, Params{Epsilon: 0.25, Weights: WeightTight})
	if h.Size() != ht.Size() {
		t.Fatalf("weight mode changed topology: %d vs %d edges", h.Size(), ht.Size())
	}
	for i := range h.Edges {
		if h.Edges[i].W < ht.Edges[i].W-1e-9 {
			t.Fatalf("edge %d: strict %v < tight %v", i, h.Edges[i].W, ht.Edges[i].W)
		}
	}
}

func TestNormalizationRoundTrip(t *testing.T) {
	// Weights scaled by 7: normalized graph has min weight 1 and distances
	// scale back via ScaleFactor.
	edges := []graph.Edge{graph.E(0, 1, 7), graph.E(1, 2, 14), graph.E(2, 3, 21)}
	g := graph.MustFromEdges(4, edges)
	h := build(t, g, defaultParams())
	if h.ScaleFactor != 7 {
		t.Fatalf("scale factor %v", h.ScaleFactor)
	}
	if w, _ := h.G.HasEdge(0, 1); w != 1 {
		t.Fatalf("normalized weight %v", w)
	}
}

func TestBuildErrors(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights(), 1)
	if _, err := Build(g, Params{Epsilon: 0}, nil); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := Build(g, Params{Epsilon: 1.5}, nil); err == nil {
		t.Fatal("epsilon > 1 accepted")
	}
	if _, err := Build(g, Params{Epsilon: 0.2, Kappa: 1}, nil); err == nil {
		t.Fatal("kappa 1 accepted")
	}
	if _, err := Build(g, Params{Epsilon: 0.2, Rho: 0.7}, nil); err == nil {
		t.Fatal("rho 0.7 accepted")
	}
	if _, err := Build(nil, Params{Epsilon: 0.2}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	single := graph.MustFromEdges(1, nil)
	if _, err := Build(single, Params{Epsilon: 0.2}, nil); err == nil {
		t.Fatal("single-vertex graph accepted")
	}
}

func TestPhaseLedger(t *testing.T) {
	g := graph.Gnm(200, 800, graph.UniformWeights(1, 4), 19)
	h := build(t, g, defaultParams())
	if len(h.Stats) == 0 {
		t.Fatal("no phase stats recorded")
	}
	for _, st := range h.Stats {
		// Cluster accounting: superclustered + retired = clusters.
		if st.Superclustered+st.Retired != st.Clusters {
			t.Fatalf("scale %d phase %d: %d super + %d retired != %d clusters",
				st.Scale, st.Phase, st.Superclustered, st.Retired, st.Clusters)
		}
		if st.Popular > st.Clusters || st.Ruling > st.Popular {
			t.Fatalf("scale %d phase %d: popular=%d ruling=%d clusters=%d",
				st.Scale, st.Phase, st.Popular, st.Ruling, st.Clusters)
		}
		// Lemma 2.2: measured radius below the worst-case bound.
		if st.MaxRad > st.RBound+1e-9 && st.RBound > 0 {
			t.Fatalf("scale %d phase %d: radius %v exceeds bound %v",
				st.Scale, st.Phase, st.MaxRad, st.RBound)
		}
	}
}

func TestClusterDecay(t *testing.T) {
	// Within one scale, |Pᵢ₊₁| ≤ |Pᵢ| (Lemmas 2.6/2.7 imply strict decay
	// whenever superclusters form).
	g := graph.Gnm(300, 2000, graph.UnitWeights(), 21)
	h := build(t, g, defaultParams())
	byScale := make(map[int][]PhaseStats)
	for _, st := range h.Stats {
		byScale[st.Scale] = append(byScale[st.Scale], st)
	}
	for k, phases := range byScale {
		for j := 1; j < len(phases); j++ {
			if phases[j].Clusters > phases[j-1].Clusters {
				t.Fatalf("scale %d: clusters grew %d -> %d", k, phases[j-1].Clusters, phases[j].Clusters)
			}
		}
	}
}

func TestTrackerCharged(t *testing.T) {
	tr := pram.New()
	g := graph.Gnm(100, 300, graph.UnitWeights(), 23)
	if _, err := Build(g, defaultParams(), tr); err != nil {
		t.Fatal(err)
	}
	c := tr.Snapshot()
	if c.Depth == 0 || c.Work == 0 {
		t.Fatalf("tracker not charged: %v", c)
	}
}

func TestHopReduction(t *testing.T) {
	// The point of a hopset (§1.1): Bellman–Ford over G∪H converges in far
	// fewer rounds than over G on a high-diameter graph.
	g := graph.Path(256, graph.UnitWeights(), 1)
	h := build(t, g, Params{Epsilon: 0.3})
	plain := relax.Run(adj.Build(g, nil), []int32{0}, g.N, relax.Options{})
	with := relax.Run(adj.Build(h.G, h.Extras()), []int32{0}, g.N, relax.Options{})
	if !plain.Converged || !with.Converged {
		t.Fatal("BF did not converge")
	}
	if with.Rounds >= plain.Rounds {
		t.Fatalf("no hop reduction: %d rounds with hopset vs %d without", with.Rounds, plain.Rounds)
	}
}

func TestEmptyHopsetWhenGraphTiny(t *testing.T) {
	// With β ≥ diameter the bottom scale k₀ exceeds λ: no edges needed.
	g := graph.Path(8, graph.UnitWeights(), 1)
	h := build(t, g, Params{Epsilon: 0.25, EffectiveBeta: 64})
	if h.Size() != 0 {
		t.Fatalf("expected empty hopset for tiny graph, got %d edges", h.Size())
	}
	checkStretch(t, h, 0.25)
}
