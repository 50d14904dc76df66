// Word-parallel lane execution of Algorithm 2: when an exploration has at
// most relax.MaxBatch source clusters, the per-vertex record lists are
// replaced by a 64-bit lane-membership word plus per-lane
// (BDist, CDist, SeedV) values, so one frontier-sparse scan of the graph
// propagates every cluster's exploration at once. Detect uses one lane
// per cluster (P ≤ 64 — the wide concluding phases of the hopset build);
// BFS uses one lane per distinct origin per pulse.
//
// The lane path is bit-identical to the record path. The argument:
//
//   - A selected record list L[v] holds records with pairwise distinct
//     Src, and distinct Src implies distinct cluster centers (§1.5), so
//     less() is a strict total order on it — the list is exactly its
//     record *set* in sorted order, which is exactly what the lane word +
//     per-lane values represent.
//   - Per (vertex, lane), folding candidates by lexicographic
//     (BDist, CDist, SeedV) reproduces selectBest's dedup-keep-best for
//     that Src: within one lane less() reduces to that order. Fully tied
//     candidates are identical in every field the non-path mode reads
//     (EndV = −1, Path = nil), so which one survives is immaterial —
//     which is also why the lane path requires !RecordPaths.
//   - Top-X pruning picks the X less()-smallest lanes — the same records
//     selectBest keeps — and a dropped lane's word bit is cleared, which
//     is the lane form of a dropped record not propagating further.
//   - Aggregation emits each member's lanes in lane order, not less()
//     order, and selectBest still returns the record path's list, tie for
//     tie. Its bounded selection keeps each source's less()-best record,
//     the first offered among full ties, and the X best of those. One
//     member's lanes have distinct sources, so no two of them tie fully:
//     their order changes neither the winners nor the X best. Full ties
//     only occur across members, and members are visited in the same
//     order on both paths.
//
// Per round the tracker is charged frontArcs + scanArcs once — the shared
// traversal — instead of the record path's scanArcs·X: that accounting
// drop is the build-time win the hopset bench measures.
package limbfs

import (
	"math/bits"
	"slices"

	"repro/internal/par"
	"repro/internal/relax"
)

// DisableLanes forces the record path everywhere, for the benchmarks and
// equivalence tests that compare the two executions. Set it only from a
// single goroutine before starting an exploration; it is read without
// synchronization.
var DisableLanes bool

// laneScratch holds the pooled lane-mode state, sized n vertices × kk
// lanes, value arrays indexed [v*kk+l]. Values under a zero word bit are
// garbage by design — every read is masked — so acquiring it costs
// nothing; the word array obeys an all-zero-between-uses invariant
// maintained by clearing exactly the touched vertices.
type laneScratch struct {
	word []uint64
	bd   []float64
	cd   []float64
	sv   []int32
	// Per-work-slot staged state of one round.
	nword []uint64
	nbd   []float64
	ncd   []float64
	nsv   []int32
	wchg  []bool
}

func (s *laneScratch) grow(n, kk int) {
	if cap(s.word) < n {
		s.word = make([]uint64, n) // zeroed; the invariant keeps it so
		s.nword = make([]uint64, n)
		s.wchg = make([]bool, n)
	}
	s.word = s.word[:n]
	s.nword = s.nword[:n]
	s.wchg = s.wchg[:n]
	if cap(s.bd) < n*kk {
		s.bd = make([]float64, n*kk)
		s.cd = make([]float64, n*kk)
		s.sv = make([]int32, n*kk)
		s.nbd = make([]float64, n*kk)
		s.ncd = make([]float64, n*kk)
		s.nsv = make([]int32, n*kk)
	}
	s.bd = s.bd[:n*kk]
	s.cd = s.cd[:n*kk]
	s.sv = s.sv[:n*kk]
	s.nbd = s.nbd[:n*kk]
	s.ncd = s.ncd[:n*kk]
	s.nsv = s.nsv[:n*kk]
}

// lanes returns the lane scratch of the explorer's shared Scratch.
func (e *Explorer) lanes(n, kk int) *laneScratch {
	if e.Scratch == nil {
		e.Scratch = &Scratch{}
	}
	if e.Scratch.laneSc == nil {
		e.Scratch.laneSc = &laneScratch{}
	}
	ls := e.Scratch.laneSc
	ls.grow(n, kk)
	return ls
}

// useLanes reports whether an exploration with k sources can run on the
// lane path.
func (e *Explorer) useLanes(k int) bool {
	return !DisableLanes && !e.RecordPaths && k > 0 && k <= relax.MaxBatch
}

// propagateLanes is propagate on lane state: up to HopCap synchronous
// rounds over the frontier-sparse work set F ∪ N(F), folding per
// (vertex, lane) and keeping the X less()-smallest lanes per vertex.
// laneSrc maps lane index → source cluster. Returns every touched vertex
// so the caller can restore the all-zero word invariant.
func (e *Explorer) propagateLanes(ls *laneScratch, seed []int32, kk int, laneSrc []int32) (touched []int32) {
	a := e.A
	n := a.N
	centers := e.Part.Centers
	var front []int32
	var frontArcs int64
	front = append(front, seed...)
	for _, v := range front {
		frontArcs += int64(a.Off[v+1] - a.Off[v])
	}
	touched = append(touched, front...)
	ss := relax.GetScanSet(n)
	defer relax.PutScanSet(ss)
	sc := e.Scratch
	word, bd, cd, sv := ls.word, ls.bd, ls.cd, ls.sv
	nword, nbd, ncd, nsv, wchg := ls.nword, ls.nbd, ls.ncd, ls.nsv, ls.wchg
	for round := 0; round < e.HopCap && len(front) > 0; round++ {
		ss.Reset(n)
		ss.MarkNeighbors(a, front, true)
		var scanArcs int64
		sc.work, scanArcs = ss.Collect(a, sc.work[:0])
		work := sc.work
		par.ForChunk(len(work), func(lo, hi int) {
			// Per-lane fold registers and the lane-index sort buffer of
			// the top-X selection, reused across the chunk.
			var cbd [relax.MaxBatch]float64
			var ccd [relax.MaxBatch]float64
			var csv [relax.MaxBatch]int32
			var idxArr [relax.MaxBatch]int32
			for i := lo; i < hi; i++ {
				v := work[i]
				vb := int(v) * kk
				var present uint64
				// Own lanes are candidates unconditionally, like L[v] in
				// the record path.
				for m := word[v]; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					present |= 1 << uint(l)
					cbd[l], ccd[l], csv[l] = bd[vb+l], cd[vb+l], sv[vb+l]
				}
				for arcI := a.Off[v]; arcI < a.Off[v+1]; arcI++ {
					u := a.Nbr[arcI]
					m := word[u]
					if m == 0 {
						continue
					}
					ub := int(u) * kk
					w := a.Wt[arcI]
					for ; m != 0; m &= m - 1 {
						l := bits.TrailingZeros64(m)
						nb := bd[ub+l] + w
						if nb > e.DistCap {
							continue
						}
						nc, nv := cd[ub+l]+w, sv[ub+l]
						bit := uint64(1) << uint(l)
						if present&bit == 0 {
							present |= bit
							cbd[l], ccd[l], csv[l] = nb, nc, nv
							continue
						}
						if nb < cbd[l] || (nb == cbd[l] && (nc < ccd[l] || (nc == ccd[l] && nv < csv[l]))) {
							cbd[l], ccd[l], csv[l] = nb, nc, nv
						}
					}
				}
				sel := present
				if bits.OnesCount64(present) > e.X {
					// Keep the X less()-smallest lanes. Ties cannot reach
					// the CDist/SeedV legs: distinct lanes have distinct
					// sources and therefore distinct centers.
					idx := idxArr[:0]
					for m := present; m != 0; m &= m - 1 {
						idx = append(idx, int32(bits.TrailingZeros64(m)))
					}
					slices.SortFunc(idx, func(x, y int32) int {
						switch {
						case cbd[x] < cbd[y]:
							return -1
						case cbd[x] > cbd[y]:
							return 1
						}
						cx, cy := centers[laneSrc[x]], centers[laneSrc[y]]
						switch {
						case cx < cy:
							return -1
						case cx > cy:
							return 1
						}
						return 0
					})
					sel = 0
					for _, l := range idx[:e.X] {
						sel |= 1 << uint(l)
					}
				}
				changed := sel != word[v]
				if !changed {
					for m := sel; m != 0; m &= m - 1 {
						l := bits.TrailingZeros64(m)
						if cbd[l] != bd[vb+l] || ccd[l] != cd[vb+l] || csv[l] != sv[vb+l] {
							changed = true
							break
						}
					}
				}
				wchg[i] = changed
				if changed {
					nword[i] = sel
					wb := i * kk
					for m := sel; m != 0; m &= m - 1 {
						l := bits.TrailingZeros64(m)
						nbd[wb+l], ncd[wb+l], nsv[wb+l] = cbd[l], ccd[l], csv[l]
					}
				}
			}
		})
		// One shared traversal serves every lane: charge marking plus scan
		// once, not per carried exploration — the bit-parallel accounting
		// the build bench audits against the record path's scanArcs·X.
		e.Tracker.Rounds(1, frontArcs+scanArcs)
		front = front[:0]
		frontArcs = 0
		for i, v := range work {
			if wchg[i] {
				word[v] = nword[i]
				wb, vb := i*kk, int(v)*kk
				for m := nword[i]; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					bd[vb+l], cd[vb+l], sv[vb+l] = nbd[wb+l], ncd[wb+l], nsv[wb+l]
				}
				front = append(front, v)
				frontArcs += int64(a.Off[v+1] - a.Off[v])
				touched = append(touched, v)
			}
		}
	}
	return touched
}

// aggregateLanes is aggregate on lane state: each cluster merges its
// members' lanes, in member order and per member in lane order (see the
// package comment for why that order needs no sort).
func (e *Explorer) aggregateLanes(ls *laneScratch, kk int, laneSrc []int32) [][]Record {
	P := e.Part.Len()
	out := make([][]Record, P)
	word, bd, cd, sv := ls.word, ls.bd, ls.cd, ls.sv
	var members int64
	par.ForChunk(P, func(lo, hi int) {
		var cand []Record
		for c := lo; c < hi; c++ {
			cand = cand[:0]
			for _, v := range e.Part.Members[c] {
				vb := int(v) * kk
				for m := word[v]; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					cand = append(cand, Record{
						Src:   laneSrc[l],
						BDist: bd[vb+l],
						CDist: cd[vb+l] + e.centerDist(v),
						SeedV: sv[vb+l],
						EndV:  v,
					})
				}
			}
			out[c] = e.selectBest(nil, cand, e.X)
		}
	})
	for c := 0; c < P; c++ {
		members += int64(len(e.Part.Members[c]))
	}
	e.Tracker.Rounds(1, members*int64(e.X))
	return out
}

// clearLanes restores the all-zero word invariant for the touched set.
func clearLanes(ls *laneScratch, touched []int32) {
	for _, v := range touched {
		ls.word[v] = 0
	}
}

// detectLanes is Detect on the lane path: lane index = cluster index
// (P ≤ 64), every clustered vertex seeded with its own cluster's lane.
func (e *Explorer) detectLanes() [][]Record {
	n := e.A.N
	kk := e.Part.Len()
	ls := e.lanes(n, kk)
	laneSrc := make([]int32, kk)
	for c := range laneSrc {
		laneSrc[c] = int32(c)
	}
	word, bd, cd, sv := ls.word, ls.bd, ls.cd, ls.sv
	clusterOf := e.Part.ClusterOf
	par.For(n, func(v int) {
		c := clusterOf[v]
		if c < 0 {
			return // word[v] is already 0 by the invariant
		}
		word[v] = 1 << uint(c)
		vb := v*kk + int(c)
		bd[vb], cd[vb], sv[vb] = 0, e.centerDist(int32(v)), int32(v)
	})
	e.Tracker.Round(int64(n))
	seed := make([]int32, 0, n)
	for v := int32(0); int(v) < n; v++ {
		if word[v] != 0 {
			seed = append(seed, v)
		}
	}
	touched := e.propagateLanes(ls, seed, kk, laneSrc)
	out := e.aggregateLanes(ls, kk, laneSrc)
	clearLanes(ls, touched)
	return out
}

// bfsPulseLanes runs one BFS distribution+propagation+aggregation pulse
// on the lane path: one lane per distinct origin among the frontier
// clusters (callers check ≤ MaxBatch), each frontier member seeded into
// its origin's lane.
func (e *Explorer) bfsPulseLanes(res *BFSResult, frontier []int32, laneSrc []int32, laneOf map[int32]int) [][]Record {
	n := e.A.N
	kk := len(laneSrc)
	ls := e.lanes(n, kk)
	word, bd, cd, sv := ls.word, ls.bd, ls.cd, ls.sv
	var seeded []int32
	for _, c := range frontier {
		l := laneOf[res.Origin[c]]
		for _, v := range e.Part.Members[c] {
			word[v] = 1 << uint(l)
			vb := int(v)*kk + l
			bd[vb], cd[vb], sv[vb] = 0, res.Est[c]+e.centerDist(v), v
			seeded = append(seeded, v)
		}
	}
	e.Tracker.Round(int64(len(seeded)))
	touched := e.propagateLanes(ls, seeded, kk, laneSrc)
	out := e.aggregateLanes(ls, kk, laneSrc)
	clearLanes(ls, touched)
	return out
}
