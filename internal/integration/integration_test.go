// Package integration exercises the full pipeline end to end: every
// generator family × ε × solver mode, with ground-truth validation of
// soundness, stretch, trees, determinism, and serialization. These are the
// "would a downstream user trust it" tests; unit tests live next to each
// package.
package integration

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/adj"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/pathrep"
	"repro/internal/relax"
	"repro/internal/testkit"
)

// workloads is the cross-family integration mix, drawn from the shared
// deterministic testkit so every suite exercises the same instances.
func workloads(seed int64) []testkit.NamedGraph {
	return testkit.Mix(120, seed)
}

// validateSolver checks soundness and stretch of ApproxDistances against
// Dijkstra from several sources, in original units.
func validateSolver(t *testing.T, g *graph.Graph, s *core.Solver, eps float64) {
	t.Helper()
	for _, src := range []int32{0, int32(g.N / 2), int32(g.N - 1)} {
		got, err := s.ApproxDistances(src)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.DijkstraGraph(g, src)
		for v := 0; v < g.N; v++ {
			switch {
			case math.IsInf(want[v], 1):
				if !math.IsInf(got[v], 1) {
					t.Fatalf("src %d v %d: reachable only via hopset", src, v)
				}
			case got[v] < want[v]-1e-6*want[v]-1e-9:
				t.Fatalf("src %d v %d: %v undershoots exact %v", src, v, got[v], want[v])
			case got[v] > (1+eps)*want[v]+1e-6:
				t.Fatalf("src %d v %d: %v overshoots (1+%v)·%v", src, v, got[v], eps, want[v])
			}
		}
	}
}

func TestMatrixDefaultMode(t *testing.T) {
	for _, w := range workloads(3) {
		for _, eps := range []float64{0.5, 0.25} {
			w, eps := w, eps
			t.Run(fmt.Sprintf("%s/eps=%v", w.Name, eps), func(t *testing.T) {
				s, err := core.New(w.G, core.Options{Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				validateSolver(t, w.G, s, eps)
			})
		}
	}
}

func TestMatrixPathReporting(t *testing.T) {
	for _, w := range workloads(5) {
		if w.Wide {
			continue // covered by the KS matrix below
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			eps := 0.3
			s, err := core.New(w.G, core.Options{Epsilon: eps, PathReporting: true})
			if err != nil {
				t.Fatal(err)
			}
			spt, err := s.SPT(int32(w.G.N / 3))
			if err != nil {
				t.Fatal(err)
			}
			if err := spt.Validate(s.Hopset()); err != nil {
				t.Fatal(err)
			}
			want, _ := exact.DijkstraGraph(w.G, int32(w.G.N/3))
			for v := 0; v < w.G.N; v++ {
				if math.IsInf(want[v], 1) {
					continue
				}
				if spt.Dist[v] > (1+eps)*want[v]+1e-6 || spt.Dist[v] < want[v]-1e-6 {
					t.Fatalf("v %d: tree %v vs exact %v", v, spt.Dist[v], want[v])
				}
			}
		})
	}
}

func TestMatrixWeightReduction(t *testing.T) {
	for _, w := range workloads(7) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			eps := 0.5
			s, err := core.New(w.G, core.Options{Epsilon: eps, WeightReduction: true})
			if err != nil {
				t.Fatal(err)
			}
			validateSolver(t, w.G, s, eps)
		})
	}
}

func TestMatrixStrictWeights(t *testing.T) {
	// Strict weights keep soundness on every workload (stretch at fixed
	// budgets is looser by design; only the lower bound is asserted).
	for _, w := range workloads(9) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s, err := core.New(w.G, core.Options{Epsilon: 0.25, StrictWeights: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.ApproxDistances(0)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := exact.DijkstraGraph(w.G, 0)
			for v := 0; v < w.G.N; v++ {
				if !math.IsInf(want[v], 1) && got[v] < want[v]-1e-6 {
					t.Fatalf("v %d: %v undershoots %v", v, got[v], want[v])
				}
			}
		})
	}
}

// TestQuickPipelineProperty drives the full default pipeline on random
// small graphs via testing/quick: soundness and stretch must hold for every
// generated instance.
func TestQuickPipelineProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8, epsRaw uint8) bool {
		n := 16 + int(nRaw%64)
		m := n - 1 + int(mRaw)
		eps := 0.15 + float64(epsRaw%4)*0.1
		g := graph.Gnm(n, m, graph.UniformWeights(1, 9), seed)
		s, err := core.New(g, core.Options{Epsilon: eps})
		if err != nil {
			return false
		}
		src := int32(int(seed%int64(n)+int64(n)) % n)
		got, err := s.ApproxDistances(src)
		if err != nil {
			return false
		}
		want, _ := exact.DijkstraGraph(g, src)
		for v := 0; v < n; v++ {
			if got[v] < want[v]-1e-9 || got[v] > (1+eps)*want[v]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSoundnessOfEveryHopsetEdge property-tests the no-shortcut
// invariant (Lemmas 2.3/2.9) on random instances and parameterizations.
func TestQuickSoundnessOfEveryHopsetEdge(t *testing.T) {
	prop := func(seed int64, kRaw, rRaw uint8) bool {
		kappa := 2 + int(kRaw%3)
		rho := 0.2 + float64(rRaw%3)*0.1
		g := graph.Gnm(48, 140, graph.UniformWeights(1, 7), seed)
		h, err := hopset.Build(g, hopset.Params{Epsilon: 0.3, Kappa: kappa, Rho: rho}, nil)
		if err != nil {
			return false
		}
		byU := map[int32][]hopset.Edge{}
		for _, e := range h.Edges {
			byU[e.U] = append(byU[e.U], e)
		}
		for u, es := range byU {
			d, _ := exact.DijkstraGraph(h.G, u)
			for _, e := range es {
				if e.W < d[e.V]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSerializationPipeline round-trips a hopset through Encode/Decode and
// verifies queries are identical.
func TestSerializationPipeline(t *testing.T) {
	g := graph.Gnm(90, 270, graph.UniformWeights(1, 5), 11)
	h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25, RecordPaths: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hopset.Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hopset.Decode(&buf, h.G)
	if err != nil {
		t.Fatal(err)
	}
	budget := h.Sched.HopBudget() * (h.Sched.Ell + 2)
	a1 := adj.Build(h.G, h.Extras())
	a2 := adj.Build(h2.G, h2.Extras())
	r1 := relax.Run(a1, []int32{0}, budget, relax.Options{})
	r2 := relax.Run(a2, []int32{0}, budget, relax.Options{})
	for v := 0; v < g.N; v++ {
		if r1.Dist[v] != r2.Dist[v] {
			t.Fatalf("v %d: %v vs %v after round trip", v, r1.Dist[v], r2.Dist[v])
		}
	}
	// SPT from the decoded hopset too.
	spt, err := pathrep.BuildSPT(h2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := spt.Validate(h2); err != nil {
		t.Fatal(err)
	}
}

// TestFailureInjectionCheckCatchesCorruption corrupts built hopsets in
// specific ways and confirms Check rejects each.
func TestFailureInjectionCheckCatchesCorruption(t *testing.T) {
	fresh := func() *hopset.Hopset {
		g := graph.Gnm(70, 210, graph.UniformWeights(1, 4), 13)
		h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25, RecordPaths: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h.Size() == 0 {
			t.Skip("empty hopset")
		}
		return h
	}
	t.Run("endpoint out of range", func(t *testing.T) {
		h := fresh()
		h.Edges[0].U = int32(h.G.N) + 5
		if h.Check() == nil {
			t.Fatal("not caught")
		}
	})
	t.Run("non-positive weight", func(t *testing.T) {
		h := fresh()
		h.Edges[0].W = 0
		if h.Check() == nil {
			t.Fatal("not caught")
		}
	})
	t.Run("path lighter than claimed but broken endpoint", func(t *testing.T) {
		h := fresh()
		h.Edges[0].V++ // path no longer ends at V
		if h.Check() == nil {
			t.Fatal("not caught")
		}
	})
	t.Run("path weight above edge weight", func(t *testing.T) {
		h := fresh()
		h.Edges[0].W /= 16
		if h.Check() == nil {
			t.Fatal("not caught")
		}
	})
	t.Run("scale ordering violated", func(t *testing.T) {
		h := fresh()
		// Find an edge whose path uses a hopset edge and claim it is from
		// a lower scale than its constituent.
		for i, p := range h.Paths {
			usesHopset := false
			for _, s := range p {
				if s.HEdge >= 0 {
					usesHopset = true
				}
			}
			if usesHopset {
				h.Edges[i].Scale = 0
				if h.Check() == nil {
					t.Fatal("not caught")
				}
				return
			}
		}
		t.Skip("no multi-scale paths in this instance")
	})
}

// TestRandomSourcesAgainstDijkstra samples many (graph, source) pairs.
func TestRandomSourcesAgainstDijkstra(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := graph.Gnm(200, 800, graph.UniformWeights(1, 10), 17)
	s, err := core.New(g, core.Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 12; trial++ {
		src := int32(r.Intn(g.N))
		got, err := s.ApproxDistances(src)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.DijkstraGraph(g, src)
		for v := 0; v < g.N; v++ {
			if got[v] < want[v]-1e-6 || got[v] > 1.25*want[v]+1e-6 {
				t.Fatalf("trial %d src %d v %d: %v vs %v", trial, src, v, got[v], want[v])
			}
		}
	}
}
