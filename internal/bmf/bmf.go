// Package bmf is the hop-limited parallel Bellman–Ford query surface the
// paper uses over G ∪ H (§3.4): each synchronous round relaxes every arc
// once; after r rounds, Dist[v] is exactly the r-hop-bounded distance
// d^{(r)}(sources, v). With a (1+ε, β)-hopset, β rounds give
// (1+ε)-approximate distances (Theorem 3.8).
//
// The relaxation itself lives in internal/relax (relax.Run runs r rounds);
// this package keeps the hopbound measurement built on top of it.
package bmf

import (
	"math"
	"sync/atomic"

	"repro/internal/adj"
	"repro/internal/par"
	"repro/internal/pram"
	"repro/internal/relax"
)

// RoundsToApprox returns the smallest round budget r ≤ maxRounds such that
// the r-hop-bounded distances from the sources are within a (1+eps) factor
// of the reference distances ref for every vertex ref reaches, or −1 if
// maxRounds rounds do not suffice. It measures the empirical hopbound of a
// hopset (experiments E2/E11). The tracker, when non-nil, is charged the
// arcs the engine actually scanned — with the frontier-sparse kernel that
// is usually far below r·m.
func RoundsToApprox(a *adj.Adj, sources []int32, ref []float64, eps float64, maxRounds int, tr *pram.Tracker) int {
	e := relax.Start(a, sources, relax.Options{Tracker: tr})
	defer e.Finish()
	within := func() bool {
		dist := e.Dist()
		var bad atomic.Bool
		par.ForChunk(len(dist), func(lo, hi int) {
			good := true
			for v := lo; v < hi; v++ {
				if math.IsInf(ref[v], 1) {
					continue
				}
				if dist[v] > (1+eps)*ref[v]+1e-12 {
					good = false
					break
				}
			}
			if !good {
				bad.Store(true)
			}
		})
		return !bad.Load()
	}
	if within() {
		return 0
	}
	for round := 1; round <= maxRounds; round++ {
		changed := e.Step()
		if within() {
			return round
		}
		if !changed {
			return -1 // converged without reaching the target approximation
		}
	}
	return -1
}
