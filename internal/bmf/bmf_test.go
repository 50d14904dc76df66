package bmf

import (
	"math"
	"testing"

	"repro/internal/adj"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pram"
	"repro/internal/relax"
)

func TestConvergedMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Gnm(100, 300, graph.UniformWeights(1, 7), seed)
		a := adj.Build(g, nil)
		res := relax.Run(a, []int32{0}, g.N, relax.Options{})
		if !res.Converged {
			t.Fatal("did not converge within n rounds")
		}
		want, _ := exact.Dijkstra(a, 0)
		for v := 0; v < g.N; v++ {
			if math.Abs(res.Dist[v]-want[v]) > 1e-9 {
				t.Fatalf("seed %d vertex %d: %v vs dijkstra %v", seed, v, res.Dist[v], want[v])
			}
		}
	}
}

func TestHopLimitedSemantics(t *testing.T) {
	// Path 0-1-2-3 with heavy shortcut 0-3: r rounds give exactly the
	// r-hop-bounded distance.
	g := graph.MustFromEdges(4, []graph.Edge{
		graph.E(0, 1, 1), graph.E(1, 2, 1), graph.E(2, 3, 1), graph.E(0, 3, 10),
	})
	a := adj.Build(g, nil)
	r1 := relax.Run(a, []int32{0}, 1, relax.Options{})
	if r1.Dist[3] != 10 { // one hop: only the direct edge
		t.Fatalf("1-hop dist = %v want 10", r1.Dist[3])
	}
	r3 := relax.Run(a, []int32{0}, 3, relax.Options{})
	if r3.Dist[3] != 3 {
		t.Fatalf("3-hop dist = %v want 3", r3.Dist[3])
	}
}

func TestMultiSource(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	res := relax.Run(a, []int32{0, 9}, g.N, relax.Options{})
	want := []float64{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	for v, w := range want {
		if res.Dist[v] != w {
			t.Fatalf("dist=%v want %v", res.Dist, want)
		}
	}
}

func TestParentsFormShortestPathForest(t *testing.T) {
	g := graph.Gnm(80, 240, graph.UniformWeights(1, 5), 3)
	a := adj.Build(g, nil)
	res := relax.Run(a, []int32{0}, g.N, relax.Options{})
	for v := int32(0); int(v) < g.N; v++ {
		if v == 0 {
			if res.Parent[v] != -1 {
				t.Fatal("source has a parent")
			}
			continue
		}
		p := res.Parent[v]
		if p < 0 {
			if !math.IsInf(res.Dist[v], 1) {
				t.Fatalf("vertex %d reached but no parent", v)
			}
			continue
		}
		arc := res.ParentArc[v]
		if a.Nbr[arc] != p {
			t.Fatalf("vertex %d: parent arc points to %d, parent is %d", v, a.Nbr[arc], p)
		}
		if math.Abs(res.Dist[p]+a.Wt[arc]-res.Dist[v]) > 1e-9 {
			t.Fatalf("vertex %d: dist %v != parent dist %v + w %v", v, res.Dist[v], res.Dist[p], a.Wt[arc])
		}
	}
}

func TestPathTo(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	res := relax.Run(a, []int32{0}, 10, relax.Options{})
	path := res.PathTo(5)
	want := []int32{0, 1, 2, 3, 4, 5}
	if len(path) != len(want) {
		t.Fatalf("path=%v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path=%v want %v", path, want)
		}
	}
	// Unreached vertex: disconnected graph.
	g2 := graph.MustFromEdges(3, []graph.Edge{graph.E(0, 1, 1)})
	res2 := relax.Run(adj.Build(g2, nil), []int32{0}, 5, relax.Options{})
	if res2.PathTo(2) != nil {
		t.Fatal("unreached vertex returned a path")
	}
}

func TestUnreachableStaysInf(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{graph.E(0, 1, 1), graph.E(2, 3, 1)})
	a := adj.Build(g, nil)
	res := relax.Run(a, []int32{0}, 10, relax.Options{})
	if !math.IsInf(res.Dist[2], 1) || !math.IsInf(res.Dist[3], 1) {
		t.Fatalf("disconnected vertices reached: %v", res.Dist)
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	g := graph.Gnm(400, 1600, graph.UniformWeights(1, 9), 7)
	a := adj.Build(g, nil)
	par.SetWorkers(1)
	ref := relax.Run(a, []int32{5}, 50, relax.Options{})
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		got := relax.Run(a, []int32{5}, 50, relax.Options{})
		for v := 0; v < g.N; v++ {
			if got.Dist[v] != ref.Dist[v] || got.Parent[v] != ref.Parent[v] {
				t.Fatalf("workers=%d vertex %d differs", w, v)
			}
		}
	}
}

func TestRoundsToApprox(t *testing.T) {
	g := graph.Path(50, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	exact, _ := exact.Dijkstra(a, 0)
	// Exact distances need exactly 49 rounds on the path.
	if r := RoundsToApprox(a, []int32{0}, exact, 0, 60, nil); r != 49 {
		t.Fatalf("rounds=%d want 49", r)
	}
	// Insufficient budget.
	if r := RoundsToApprox(a, []int32{0}, exact, 0, 10, nil); r != -1 {
		t.Fatalf("rounds=%d want -1", r)
	}
	// Zero rounds suffice when the reference is trivial (source only).
	ref := make([]float64, g.N)
	for v := range ref {
		ref[v] = math.Inf(1)
	}
	ref[0] = 0
	if r := RoundsToApprox(a, []int32{0}, ref, 0, 5, nil); r != 0 {
		t.Fatalf("rounds=%d want 0", r)
	}
}

func TestRoundsToApproxConvergedShort(t *testing.T) {
	// If BF converges without meeting the target (impossible reference),
	// RoundsToApprox must return -1 rather than loop.
	g := graph.Path(10, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	ref := make([]float64, g.N)
	for v := range ref {
		ref[v] = 0.1 // unattainably small
	}
	if r := RoundsToApprox(a, []int32{0}, ref, 0, 100, nil); r != -1 {
		t.Fatalf("rounds=%d want -1", r)
	}
}

func TestTrackerCharged(t *testing.T) {
	tr := pram.New()
	g := graph.Path(20, graph.UnitWeights(), 1)
	relax.Run(adj.Build(g, nil), []int32{0}, 5, relax.Options{Tracker: tr})
	if c := tr.Snapshot(); c.Depth != 5 || c.Work == 0 {
		t.Fatalf("tracker: %v", c)
	}
}
