package baseline

import (
	"math"
	"testing"

	"repro/internal/adj"
	"repro/internal/bmf"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/hopset"
)

// bellmanFordRef is an independent O(nm) reference implementation.
func bellmanFordRef(g *graph.Graph, s int32) []float64 {
	dist := make([]float64, g.N)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[s] = 0
	for i := 0; i < g.N; i++ {
		for _, e := range g.Edges {
			if d := dist[e.U] + e.W; d < dist[e.V] {
				dist[e.V] = d
			}
			if d := dist[e.V] + e.W; d < dist[e.U] {
				dist[e.U] = d
			}
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.Gnm(60, 180, graph.UniformWeights(1, 9), seed)
		dist, parent := exact.DijkstraGraph(g, 0)
		want := bellmanFordRef(g, 0)
		for v := 0; v < g.N; v++ {
			if math.Abs(dist[v]-want[v]) > 1e-9 {
				t.Fatalf("seed %d vertex %d: %v vs %v", seed, v, dist[v], want[v])
			}
		}
		// Parent consistency.
		for v := int32(0); int(v) < g.N; v++ {
			p := parent[v]
			if v == 0 || p < 0 {
				continue
			}
			w, ok := g.HasEdge(p, v)
			if !ok {
				t.Fatalf("parent edge (%d,%d) missing", p, v)
			}
			if math.Abs(dist[p]+w-dist[v]) > 1e-9 {
				t.Fatalf("parent edge not tight at %d", v)
			}
		}
	}
}

func TestDijkstraDisconnected(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{graph.E(0, 1, 2)})
	dist, _ := exact.DijkstraGraph(g, 0)
	if dist[0] != 0 || dist[1] != 2 {
		t.Fatalf("dist=%v", dist)
	}
	if !math.IsInf(dist[2], 1) || !math.IsInf(dist[3], 1) {
		t.Fatalf("disconnected reached: %v", dist)
	}
}

func TestRandHopsetStretchAndSize(t *testing.T) {
	g := graph.Gnm(128, 512, graph.UniformWeights(1, 4), 3)
	edges, sched, err := RandHopset(g, RandHopsetParams{Epsilon: 0.25, Seed: 42}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ng, _ := g.Normalized()
	// Soundness: randomized edges also use tight (realizable) weights.
	byU := make(map[int32][]hopset.Edge)
	for _, e := range edges {
		byU[e.U] = append(byU[e.U], e)
	}
	for u, es := range byU {
		dist, _ := exact.DijkstraGraph(ng, u)
		for _, e := range es {
			if e.W < dist[e.V]-1e-9 {
				t.Fatalf("edge (%d,%d) w=%v below exact %v", e.U, e.V, e.W, dist[e.V])
			}
		}
	}
	// Stretch within the same hop budget the deterministic tests use.
	extras := make([]adj.Extra, len(edges))
	for i, e := range edges {
		extras[i] = adj.Extra{U: e.U, V: e.V, W: e.W}
	}
	a := adj.Build(ng, extras)
	budget := sched.HopBudget() * (sched.Ell + 2)
	for _, s := range []int32{0, 64, 127} {
		ref, _ := exact.DijkstraGraph(ng, s)
		if r := bmf.RoundsToApprox(a, []int32{s}, ref, 0.25, budget, nil); r < 0 {
			t.Fatalf("source %d: randomized hopset missed (1+ε) within %d rounds", s, budget)
		}
	}
}

func TestRandHopsetSeedsDiffer(t *testing.T) {
	g := graph.Gnm(96, 400, graph.UnitWeights(), 5)
	a, _, err := RandHopset(g, RandHopsetParams{Epsilon: 0.3, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RandHopset(g, RandHopsetParams{Epsilon: 0.3, Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := RandHopset(g, RandHopsetParams{Epsilon: 0.3, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed reproduces; different seeds (generically) differ.
	if len(a) != len(c) {
		t.Fatal("same seed produced different sizes")
	}
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("warning: two seeds produced identical hopsets (possible but unlikely)")
	}
}

func TestPlainBFRounds(t *testing.T) {
	g := graph.Path(64, graph.UnitWeights(), 1)
	// Exact distances on a path need diameter rounds.
	if r := PlainBFRounds(g, 0, 0); r != 63 {
		t.Fatalf("rounds=%d want 63", r)
	}
	// Looser eps needs slightly fewer... never more.
	if r := PlainBFRounds(g, 0, 0.5); r > 63 {
		t.Fatalf("rounds=%d", r)
	}
}

func TestRandHopsetInvalidParams(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights(), 1)
	if _, _, err := RandHopset(g, RandHopsetParams{Epsilon: 0}, 0); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
}
