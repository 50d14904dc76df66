// Package baseline provides the reference algorithms the reproduction is
// judged against, besides exact sequential Dijkstra (package exact, the
// ground truth for stretch): plain parallel Bellman–Ford without a hopset
// (the motivation baseline — depth proportional to the hop diameter), and
// a randomized sampling-based hopset in the style the paper derandomizes
// ([Coh94, EN19], experiment E10).
package baseline

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/adj"
	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/limbfs"
)

// RandHopsetParams parameterizes the randomized baseline construction.
type RandHopsetParams struct {
	Epsilon       float64
	Kappa         int
	Rho           float64
	EffectiveBeta int
	Seed          int64
}

// RandHopset builds a hopset with the randomized superclustering the paper
// derandomizes (§1.2): instead of computing a ruling set over the popular
// clusters, each cluster is independently sampled with probability
// 1/(degᵢ+1) and superclusters grow around sampled clusters, as in
// [Coh94, EN19]. Everything else — scales, phases, thresholds, exploration
// machinery, interconnection — is shared with the deterministic
// construction, so experiment E10 compares exactly the ingredient the paper
// replaces.
//
// The output reuses hopset.Edge for provenance but is produced by an
// independent code path; only the deterministic construction carries the
// paper's guarantees.
func RandHopset(g *graph.Graph, p RandHopsetParams, seedOffset int64) ([]hopset.Edge, *hopset.Schedule, error) {
	hp := hopset.Params{Epsilon: p.Epsilon, Kappa: p.Kappa, Rho: p.Rho, EffectiveBeta: p.EffectiveBeta}
	ng, _ := g.Normalized()
	sched, err := hopset.NewSchedule(ng.N, ng.AspectRatioUpperBound(), hp)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed + seedOffset))
	var all []hopset.Edge
	var prev []hopset.Edge
	epsPrev := 0.0
	for k := sched.K0; k <= sched.Lambda; k++ {
		hk := randScale(ng, sched, k, epsPrev, prev, rng)
		all = append(all, hk...)
		prev = hk
		epsPrev = (1+epsPrev)*(1+sched.EpsScale) - 1
	}
	return all, sched, nil
}

func randScale(g *graph.Graph, sched *hopset.Schedule, k int, epsPrev float64, prev []hopset.Edge, rng *rand.Rand) []hopset.Edge {
	n := g.N
	extras := make([]adj.Extra, len(prev))
	for i, e := range prev {
		extras[i] = adj.Extra{U: e.U, V: e.V, W: e.W}
	}
	a := adj.Build(g, extras)
	part := cluster.Singletons(n)
	centerDist := make([]float64, n)
	var out []hopset.Edge

	for i := 0; i <= sched.Ell && part.Len() > 0; i++ {
		distCap := (1 + epsPrev) * sched.Delta(k, i)
		ex := &limbfs.Explorer{
			A: a, Part: part, CenterDist: centerDist,
			HopCap: sched.HopBudget(), DistCap: distCap, X: sched.Deg[i] + 1,
		}
		last := i == sched.Ell || part.Len() == 1
		if last {
			if part.Len() > 1 {
				ex.X = part.Len()
				recs := ex.Detect()
				out = appendInterconnects(out, part, recs, func(int32) bool { return true }, k, i)
			}
			break
		}
		recs := ex.Detect()

		// Randomized superclustering: sample cluster centers with
		// probability 1/(degᵢ+1) ([Coh94, EN19] style).
		prob := 1.0 / float64(sched.Deg[i]+1)
		var sampled []int32
		for c := int32(0); int(c) < part.Len(); c++ {
			if rng.Float64() < prob {
				sampled = append(sampled, c)
			}
		}
		super := make([]bool, part.Len())
		newPart := cluster.Empty(n)
		if len(sampled) > 0 {
			cov := ex.BFS(sampled, 2*sched.IDBits)
			newIdx := make([]int32, part.Len())
			for c := range newIdx {
				newIdx[c] = -1
			}
			members := make([][]int32, len(sampled))
			for qi, c := range sampled {
				newIdx[c] = int32(qi)
			}
			order := pulseOrder(cov, part.Len())
			for _, c := range order {
				root := cov.Origin[c]
				super[c] = true
				members[newIdx[root]] = append(members[newIdx[root]], part.Members[c]...)
				if c == root {
					continue
				}
				est := cov.Est[c]
				out = append(out, hopset.Edge{
					U: part.Centers[c], V: part.Centers[root], W: est,
					Scale: int16(k), Phase: int8(i), Kind: hopset.Superclustering,
				})
				for _, v := range part.Members[c] {
					centerDist[v] += est
				}
			}
			for qi, c := range sampled {
				ms := members[qi]
				sort.Slice(ms, func(x, y int) bool { return ms[x] < ms[y] })
				var rad float64
				for _, v := range ms {
					if centerDist[v] > rad {
						rad = centerDist[v]
					}
				}
				newPart.Add(part.Centers[c], ms, rad)
			}
		}
		// Unlike the deterministic algorithm, a popular cluster may stay
		// unsampled and uncovered; it still interconnects, but its degree
		// can exceed degᵢ only boundedly because its record list is
		// truncated at degᵢ+1 — matching the randomized constructions,
		// whose size bounds hold in expectation.
		inU := func(c int32) bool { return !super[c] }
		out = appendInterconnects(out, part, recs, inU, k, i)
		part = newPart
	}
	return out
}

func pulseOrder(cov *limbfs.BFSResult, p int) []int32 {
	order := make([]int32, 0, p)
	for c := int32(0); int(c) < p; c++ {
		if cov.Origin[c] >= 0 {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(x, y int) bool {
		if cov.Pulse[order[x]] != cov.Pulse[order[y]] {
			return cov.Pulse[order[x]] < cov.Pulse[order[y]]
		}
		return order[x] < order[y]
	})
	return order
}

func appendInterconnects(out []hopset.Edge, part *cluster.Partition, recs [][]limbfs.Record, inU func(int32) bool, k, i int) []hopset.Edge {
	for c := int32(0); int(c) < part.Len(); c++ {
		if !inU(c) {
			continue
		}
		cu := part.Centers[c]
		for _, r := range recs[c] {
			if r.Src == c || !inU(r.Src) {
				continue
			}
			cv := part.Centers[r.Src]
			if cu >= cv {
				continue
			}
			out = append(out, hopset.Edge{
				U: cu, V: cv, W: r.CDist,
				Scale: int16(k), Phase: int8(i), Kind: hopset.Interconnection,
			})
		}
	}
	return out
}

// PlainBFRounds runs hop-unlimited Bellman–Ford style relaxation over the
// bare graph and returns the rounds needed to reach (1+eps)-approximate
// distances from s — the no-hopset baseline of experiment E11 (≈ the hop
// diameter for eps → 0).
func PlainBFRounds(g *graph.Graph, s int32, eps float64) int {
	a := adj.Build(g, nil)
	ref, _ := exact.Dijkstra(a, s)
	n := g.N
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[s] = 0
	next := make([]float64, n)
	for round := 1; ; round++ {
		changed := false
		for v := 0; v < n; v++ {
			best := dist[v]
			for arc := a.Off[v]; arc < a.Off[v+1]; arc++ {
				if d := dist[a.Nbr[arc]] + a.Wt[arc]; d < best {
					best = d
				}
			}
			next[v] = best
			if best != dist[v] {
				changed = true
			}
		}
		copy(dist, next)
		ok := true
		for v := 0; v < n && ok; v++ {
			if !math.IsInf(ref[v], 1) && dist[v] > (1+eps)*ref[v]+1e-12 {
				ok = false
			}
		}
		if ok {
			return round
		}
		if !changed {
			return -1
		}
	}
}
