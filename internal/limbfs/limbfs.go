// Package limbfs implements Algorithm 2 of the paper (Appendix A): parallel
// limited BFS explorations of the virtual cluster graph G̃ᵢ = (Pᵢ, Ẽ), where
// clusters C, C′ are adjacent iff their (2β+1)-hop-bounded distance in
// G_{k−1} is at most (1+ε_{k−1})·δᵢ.
//
// Two variants are used by the hopset construction, exactly as in the paper:
//
//   - Detect (Appendix A.3.1, x = degᵢ+1, d = 1): every cluster learns the
//     IDs and bounded distances of up to x nearest clusters, which yields
//     the popular set Wᵢ (Lemma A.3) and the interconnection neighborhoods.
//   - BFS (Appendix A.3.2, x = 1, d ≥ 1): a multi-source BFS to depth d in
//     G̃ᵢ, used by the ruling-set knock-outs (depth 2) and the supercluster
//     coverage sweep (depth 2·log n); Lemma A.4 semantics — a cluster is
//     detected at pulse p iff its G̃ᵢ-distance from the sources is p.
//
// Records carry two distances. BDist is the paper's boundary distance
// (explorations start at 0 on every member of the seeding cluster; the
// pruning threshold DistCap and the hop cap apply to it), which drives all
// topology decisions. CDist is a sound center-to-center estimate: it starts
// at CenterDist[seed] and ends with +CenterDist[endpoint], so it is always
// the exact length of a concrete path in G_{k−1} between the two cluster
// centers. Tight-weight hopsets use CDist; strict-weight hopsets use the
// paper's closed-form weights and ignore it (§2.1.1, Lemmas 2.3/2.9).
package limbfs

import (
	"math"
	"slices"

	"repro/internal/adj"
	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/pram"
	"repro/internal/relax"
)

// Record is one exploration record: cluster Src is reachable with boundary
// distance BDist, and the concrete discovered path implies a center-to-center
// distance of at most CDist.
type Record struct {
	Src   int32   // source cluster index (into the Partition)
	BDist float64 // boundary distance (paper's distance value)
	CDist float64 // sound center-to-center path length
	SeedV int32   // member of Src where this exploration leg started
	EndV  int32   // member of the aggregating cluster where it ended (-1 pre-aggregation)
	Path  []int32 // arc indices from SeedV to the holder (RecordPaths mode only)
}

// Explorer holds the fixed parameters of one exploration (one phase of one
// scale): the graph G_{k−1}, the partition Pᵢ, thresholds, and bookkeeping.
type Explorer struct {
	A          *adj.Adj
	Part       *cluster.Partition
	CenterDist []float64 // per vertex; nil means all zero (phase 0)
	HopCap     int       // 2β+1 in the paper
	DistCap    float64   // (1+ε_{k−1})·δᵢ in the paper
	X          int       // number of parallel explorations a vertex carries
	// RecordPaths makes records carry full arc paths, enabling the
	// path-reporting construction of §4 (the "memory property").
	RecordPaths bool
	Tracker     *pram.Tracker
	// Scratch, when shared between successive explorers (the hopset
	// builder hands one across phases and scales), reuses the per-vertex
	// record lists instead of reallocating them per Detect/BFS call. A nil
	// Scratch is created on first use.
	Scratch *Scratch
}

// Scratch holds the reusable buffers of an exploration: the per-vertex
// record lists (tracking which entries may be nonempty so acquisition
// only clears those) and propagate's worklist and per-slot selection
// buffers. Sharing one Scratch keeps repeated explorations (the
// ruling-set knock-outs issue many) allocation-free on the hot path.
type Scratch struct {
	lists [][]Record
	stale []int32
	// propagate round state: scan worklist, per-slot new selections and
	// change flags.
	work    []int32
	newRecs [][]Record
	wchg    []bool
	// laneSc is the word-parallel lane state (lanes.go), created on first
	// lane-path exploration.
	laneSc *laneScratch
}

// acquireLists returns an all-empty [][]Record of length n, reusing the
// scratch buffers across calls.
func (e *Explorer) acquireLists() [][]Record {
	if e.Scratch == nil {
		e.Scratch = &Scratch{}
	}
	s := e.Scratch
	n := e.A.N
	for _, v := range s.stale {
		s.lists[v] = s.lists[v][:0]
	}
	s.stale = s.stale[:0]
	if len(s.lists) < n {
		s.lists = append(s.lists, make([][]Record, n-len(s.lists))...)
	}
	return s.lists[:n]
}

// releaseLists records which entries of the acquired lists may be
// nonempty; the next acquireLists clears exactly those.
func (e *Explorer) releaseLists(stale []int32) {
	e.Scratch.stale = append(e.Scratch.stale, stale...)
}

func (e *Explorer) centerDist(v int32) float64 {
	if e.CenterDist == nil {
		return 0
	}
	return e.CenterDist[v]
}

// less is the canonical record order: by boundary distance, then source
// cluster ID (= center vertex ID, §1.5), then the tight estimate, then seed.
// A total order makes every selection deterministic.
func (e *Explorer) less(a, b Record) int {
	switch {
	case a.BDist < b.BDist:
		return -1
	case a.BDist > b.BDist:
		return 1
	}
	ca, cb := e.Part.Centers[a.Src], e.Part.Centers[b.Src]
	switch {
	case ca < cb:
		return -1
	case ca > cb:
		return 1
	}
	switch {
	case a.CDist < b.CDist:
		return -1
	case a.CDist > b.CDist:
		return 1
	}
	switch {
	case a.SeedV < b.SeedV:
		return -1
	case a.SeedV > b.SeedV:
		return 1
	}
	return 0
}

// offer inserts r into best, a buffer of at most x records kept
// less()-sorted with pairwise distinct Src, and returns the buffer and the
// slot r landed in, or −1 if r was rejected. A full buffer rejects r at
// once unless r beats its last record; r replaces a worse record of its own
// source and is rejected by an equal or better one. Records fully tied
// under less() therefore resolve to the first one offered.
func (e *Explorer) offer(best []Record, r Record, x int) ([]Record, int) {
	n := len(best)
	if n == x && e.less(r, best[n-1]) >= 0 {
		return best, -1
	}
	// p is the first slot r beats (a larger BDist settles less() without
	// calling it); a same-source record ahead of it is at least as good.
	p := 0
	for ; p < n && (r.BDist > best[p].BDist || e.less(r, best[p]) >= 0); p++ {
		if best[p].Src == r.Src {
			return best, -1
		}
	}
	// The slot to vacate: r's worse same-source record, else the last one
	// (dropped when the buffer is full, a fresh slot otherwise).
	j := p
	for j < n && best[j].Src != r.Src {
		j++
	}
	if j == n {
		if n < x {
			best = append(best, Record{})
		} else {
			j = n - 1
		}
	}
	copy(best[p+1:j+1], best[p:j])
	best[p] = r
	return best, p
}

// selectBest returns the up to x less()-smallest records of cand with
// distinct sources (each source's best), offered in cand order and
// appended to dst[:0].
func (e *Explorer) selectBest(dst, cand []Record, x int) []Record {
	dst = slices.Grow(dst[:0], min(x, len(cand)))
	for _, r := range cand {
		dst, _ = e.offer(dst, r, x)
	}
	return dst
}

func sameRecs(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].BDist != b[i].BDist ||
			a[i].CDist != b[i].CDist || a[i].SeedV != b[i].SeedV {
			return false
		}
	}
	return true
}

// propagate runs up to HopCap synchronous relaxation rounds of the
// propagation part of Algorithm 2 over the vertex lists L, in place.
//
// It runs on the frontier-sparse discipline of internal/relax: each round
// recomputes only the closed neighborhood F ∪ N(F) of the vertices F
// whose list changed in the previous round (initially the seeded
// vertices). A work vertex streams its candidates — its own list, then
// each arc in CSR order extending the neighbor's list in order — through
// offer into a bounded top-x buffer, with no candidate list and no sort.
// The selection is idempotent, so a vertex with unchanged inputs
// reproduces its list exactly — the output is bit-identical to the naive
// all-vertices schedule while the work tracks the active frontier, and
// the tracker is charged only for arcs actually scanned. It stops early
// at a fixed point (the remaining rounds cannot change anything, so the
// result is identical to running all HopCap rounds).
//
// seed is the initial frontier (every vertex with a nonempty list); nil
// derives it by scanning L. Returns every vertex whose list was seeded or
// modified, so callers reusing L across explorations know what to clear.
func (e *Explorer) propagate(L [][]Record, seed []int32) (touched []int32) {
	n := e.A.N
	var front []int32
	var frontArcs int64
	if seed != nil {
		front = append(front, seed...)
	} else {
		for v := 0; v < n; v++ {
			if len(L[v]) > 0 {
				front = append(front, int32(v))
			}
		}
	}
	for _, v := range front {
		frontArcs += int64(e.A.Off[v+1] - e.A.Off[v])
	}
	touched = append(touched, front...)
	ss := relax.GetScanSet(n)
	defer relax.PutScanSet(ss)
	sc := e.Scratch // non-nil: every caller went through acquireLists
	for round := 0; round < e.HopCap && len(front) > 0; round++ {
		ss.Reset(n)
		ss.MarkNeighbors(e.A, front, true)
		var scanArcs int64
		sc.work, scanArcs = ss.Collect(e.A, sc.work[:0])
		work := sc.work
		if len(sc.newRecs) < len(work) {
			sc.newRecs = append(sc.newRecs, make([][]Record, len(work)-len(sc.newRecs))...)
			sc.wchg = append(sc.wchg, make([]bool, len(work)-len(sc.wchg))...)
		}
		newRecs, wchg := sc.newRecs, sc.wchg
		par.ForChunk(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := work[i]
				// L[v] is already a selection (less()-sorted, distinct
				// sources, at most X records): copying it is offering it.
				sel := append(newRecs[i][:0], L[v]...)
				for arcI := e.A.Off[v]; arcI < e.A.Off[v+1]; arcI++ {
					u := e.A.Nbr[arcI]
					w := e.A.Wt[arcI]
					// L[u] is less()-sorted and adding w is monotone, so
					// once a candidate exceeds the cap or the full buffer's
					// worst distance, every later one does too.
					lu := L[u]
					for k := range lu {
						r := &lu[k]
						nb := r.BDist + w
						if nb > e.DistCap || (len(sel) == e.X && nb > sel[e.X-1].BDist) {
							break
						}
						var slot int
						sel, slot = e.offer(sel, Record{Src: r.Src, BDist: nb, CDist: r.CDist + w, SeedV: r.SeedV, EndV: -1}, e.X)
						if slot >= 0 && e.RecordPaths {
							sel[slot].Path = append(append(make([]int32, 0, len(r.Path)+1), r.Path...), arcI)
						}
					}
				}
				newRecs[i] = sel
				wchg[i] = !sameRecs(sel, L[v])
			}
		})
		e.Tracker.Rounds(1, frontArcs+scanArcs*int64(e.X))
		// Commit after the synchronous barrier; the next frontier is the
		// changed vertices in worklist order — sorted, deterministic.
		front = front[:0]
		frontArcs = 0
		for i, v := range work {
			if wchg[i] {
				L[v] = append(L[v][:0], newRecs[i]...)
				front = append(front, v)
				frontArcs += int64(e.A.Off[v+1] - e.A.Off[v])
				touched = append(touched, v)
			}
		}
	}
	return touched
}

// seedOwn gives every clustered vertex the record of its own cluster:
// the initialization of the detection variant (every cluster is a source).
func (e *Explorer) seedOwn(L [][]Record) {
	par.For(e.A.N, func(v int) {
		c := e.Part.ClusterOf[v]
		if c < 0 {
			L[v] = L[v][:0]
			return
		}
		L[v] = append(L[v][:0], Record{
			Src: c, BDist: 0, CDist: e.centerDist(int32(v)), SeedV: int32(v), EndV: -1,
		})
	})
	e.Tracker.Round(int64(e.A.N))
}

// Detect is the variant of Appendix A.3.1 (d = 1, S = Pᵢ): it returns, for
// every cluster, up to X records of the nearest clusters (including itself)
// under the hop and distance caps, satisfying Lemma A.3:
// a cluster is popular iff its list is full (X = degᵢ+1 records).
func (e *Explorer) Detect() [][]Record {
	if e.useLanes(e.Part.Len()) {
		return e.detectLanes()
	}
	L := e.acquireLists()
	e.seedOwn(L)
	touched := e.propagate(L, nil)
	e.releaseLists(touched)
	return e.aggregate(L)
}

// aggregate is the aggregation part of Algorithm 2: each cluster merges its
// members' lists; member v's records gain +CenterDist[v] on CDist (the leg
// from the member up to the cluster center) and record v as EndV.
func (e *Explorer) aggregate(L [][]Record) [][]Record {
	P := e.Part.Len()
	out := make([][]Record, P)
	var members int64
	par.ForChunk(P, func(lo, hi int) {
		var cand []Record
		for c := lo; c < hi; c++ {
			cand = cand[:0]
			for _, v := range e.Part.Members[c] {
				for _, r := range L[v] {
					r.CDist += e.centerDist(v)
					r.EndV = v
					cand = append(cand, r)
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

// BFSResult describes a multi-source BFS in G̃ᵢ (Lemma A.4 semantics).
type BFSResult struct {
	// Origin[c] is the source cluster whose exploration detected cluster c
	// (c itself for sources), or -1 if undetected within the depth budget.
	Origin []int32
	// Pulse[c] is the G̃ᵢ BFS level at which c was detected (0 = source).
	Pulse []int32
	// Est[c] is a sound center-to-center distance estimate from Origin[c]'s
	// center to c's center along the concrete discovery path.
	Est []float64
	// SeedV[c] is the member of the predecessor cluster where the detecting
	// leg started; EndV[c] the member of c where it ended. The predecessor
	// cluster is the one SeedV belonged to during this exploration.
	SeedV, EndV []int32
	// LegBDist[c] is the boundary length of the detecting leg.
	LegBDist []float64
	// LegPath[c] holds the detecting leg's arc path (RecordPaths mode).
	LegPath [][]int32
}

// BFS runs the variant of Appendix A.3.2 (x = 1): a BFS to the given depth
// in G̃ᵢ from the source clusters. Each pulse performs one fresh one-level
// exploration from the clusters detected in the previous pulse, matching
// Lemma A.4: cluster detected at pulse p ⇔ d_G̃ᵢ(cluster, sources) = p.
func (e *Explorer) BFS(sources []int32, depth int) *BFSResult {
	P := e.Part.Len()
	res := &BFSResult{
		Origin:   make([]int32, P),
		Pulse:    make([]int32, P),
		Est:      make([]float64, P),
		SeedV:    make([]int32, P),
		EndV:     make([]int32, P),
		LegBDist: make([]float64, P),
	}
	if e.RecordPaths {
		res.LegPath = make([][]int32, P)
	}
	for c := 0; c < P; c++ {
		res.Origin[c] = -1
		res.Pulse[c] = -1
		res.SeedV[c] = -1
		res.EndV[c] = -1
	}
	frontier := make([]int32, 0, len(sources))
	for _, c := range sources {
		if res.Origin[c] >= 0 {
			continue
		}
		res.Origin[c] = c
		res.Pulse[c] = 0
		res.SeedV[c] = e.Part.Centers[c]
		res.EndV[c] = e.Part.Centers[c]
		frontier = append(frontier, c)
	}
	saveX := e.X
	e.X = 1
	defer func() { e.X = saveX }()
	L := e.acquireLists()
	var seeded []int32
	laneOf := make(map[int32]int)
	var laneSrc []int32
	for p := int32(1); int(p) <= depth && len(frontier) > 0; p++ {
		// One lane per distinct origin among the frontier clusters: when
		// they fit a word, the whole pulse runs on the lane path.
		laneSrc = laneSrc[:0]
		clear(laneOf)
		for _, c := range frontier {
			o := res.Origin[c]
			if _, ok := laneOf[o]; !ok {
				laneOf[o] = len(laneSrc)
				laneSrc = append(laneSrc, o)
			}
		}
		var recs [][]Record
		if e.useLanes(len(laneSrc)) {
			recs = e.bfsPulseLanes(res, frontier, laneSrc, laneOf)
		} else {
			// Distribution: seed the members of the frontier clusters (their
			// lists are the only nonempty ones — the previous pulse cleared
			// everything it touched). The record's Src carries the *origin* so
			// attribution survives multiple pulses; CDist starts from the
			// origin-to-frontier-center estimate.
			seeded = seeded[:0]
			for _, c := range frontier {
				for _, v := range e.Part.Members[c] {
					L[v] = append(L[v][:0], Record{
						Src:   res.Origin[c],
						BDist: 0,
						CDist: res.Est[c] + e.centerDist(v),
						SeedV: v,
						EndV:  -1,
					})
					seeded = append(seeded, v)
				}
			}
			e.Tracker.Round(int64(len(seeded)))
			touched := e.propagate(L, seeded)
			recs = e.aggregate(L)
			// Clear every touched list so the next pulse (or the next
			// exploration reusing the scratch) starts from empty lists.
			for _, v := range touched {
				L[v] = L[v][:0]
			}
		}
		frontier = frontier[:0]
		for c := int32(0); int(c) < P; c++ {
			if res.Origin[c] >= 0 || len(recs[c]) == 0 {
				continue
			}
			r := recs[c][0]
			res.Origin[c] = r.Src
			res.Pulse[c] = p
			res.Est[c] = r.CDist
			res.SeedV[c] = r.SeedV
			res.EndV[c] = r.EndV
			res.LegBDist[c] = r.BDist
			if e.RecordPaths {
				res.LegPath[c] = r.Path
			}
			frontier = append(frontier, c)
		}
	}
	return res
}

// Exact computes the pairwise hop- and distance-capped boundary distances
// between all clusters by brute force (one hop-limited multi-source
// Bellman–Ford per cluster). It materializes the virtual graph G̃ᵢ exactly
// and is meant for validation on small instances; the construction itself
// never calls it.
func Exact(a *adj.Adj, part *cluster.Partition, hopCap int, distCap float64) [][]float64 {
	P := part.Len()
	out := make([][]float64, P)
	par.For(P, func(c int) {
		dist := make([]float64, a.N)
		next := make([]float64, a.N)
		for v := range dist {
			dist[v] = math.Inf(1)
		}
		for _, v := range part.Members[c] {
			dist[v] = 0
		}
		for h := 0; h < hopCap; h++ {
			copy(next, dist)
			changed := false
			for v := 0; v < a.N; v++ {
				for arc := a.Off[v]; arc < a.Off[v+1]; arc++ {
					if d := dist[a.Nbr[arc]] + a.Wt[arc]; d < next[v] && d <= distCap {
						next[v] = d
						changed = true
					}
				}
			}
			dist, next = next, dist
			if !changed {
				break
			}
		}
		row := make([]float64, P)
		for i := range row {
			row[i] = math.Inf(1)
		}
		for c2 := 0; c2 < P; c2++ {
			for _, v := range part.Members[c2] {
				if dist[v] < row[c2] {
					row[c2] = dist[v]
				}
			}
		}
		out[c] = row
	})
	return out
}
