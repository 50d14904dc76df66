package limbfs

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adj"
	"repro/internal/cluster"
	"repro/internal/graph"
)

// sortSelect is the reference for selectBest: stable-sort cand by less(),
// keep each source's first record, stop at x. Stability makes the
// first-offered record win full ties, the rule offer promises.
func sortSelect(e *Explorer, cand []Record, x int) []Record {
	sorted := slices.Clone(cand)
	slices.SortStableFunc(sorted, e.less)
	var out []Record
	for _, r := range sorted {
		if len(out) == x {
			break
		}
		if !slices.ContainsFunc(out, func(o Record) bool { return o.Src == r.Src }) {
			out = append(out, r)
		}
	}
	return out
}

func sameRecord(a, b Record) bool {
	return a.Src == b.Src && a.BDist == b.BDist && a.CDist == b.CDist &&
		a.SeedV == b.SeedV && a.EndV == b.EndV
}

// TestSelectBestMatchesSortReference pins the bounded selection against
// sort-then-dedup on seeded candidate lists with repeated sources, integer
// distances (equal BDist across sources, full ties within one) and x from
// 1 past the list length. EndV numbers the candidates, so a full tie
// resolved to anything but the first offered shows.
func TestSelectBestMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const k = 12
	// Centers are a permutation of the cluster indices, so less() ranks
	// sources by center rather than by index.
	p := &cluster.Partition{Centers: make([]int32, k)}
	for c, v := range r.Perm(k) {
		p.Centers[c] = int32(v)
	}
	e := &Explorer{Part: p}
	for trial := 0; trial < 400; trial++ {
		cand := make([]Record, 1+r.Intn(60))
		for i := range cand {
			cand[i] = Record{
				Src:   int32(r.Intn(k)),
				BDist: float64(r.Intn(5)),
				CDist: float64(r.Intn(3)),
				SeedV: int32(r.Intn(2)),
				EndV:  int32(i),
			}
		}
		for _, x := range []int{1, 3, 17, len(cand) + 1} {
			want := sortSelect(e, cand, x)
			got := e.selectBest(nil, cand, x)
			if !slices.EqualFunc(got, want, sameRecord) {
				t.Fatalf("trial %d x=%d:\n got %v\nwant %v\ncand %v", trial, x, got, want, cand)
			}
			// offer reports where each record landed, or −1 with the
			// buffer untouched.
			var best []Record
			for _, c := range cand {
				before := slices.Clone(best)
				var slot int
				best, slot = e.offer(best, c, x)
				if slot < 0 && !slices.EqualFunc(best, before, sameRecord) {
					t.Fatalf("trial %d x=%d: rejected %v changed the buffer", trial, x, c)
				}
				if slot >= 0 && !sameRecord(best[slot], c) {
					t.Fatalf("trial %d x=%d: slot %d holds %v, want %v", trial, x, slot, best[slot], c)
				}
			}
		}
	}
}

// TestListsSortedDistinct checks the precondition of propagate's early
// break: after Detect and after a BFS pulse on a clustered Gnm with
// integer weights, every vertex list is strictly less()-sorted with
// distinct sources. BFS clears its lists between pulses, so the pulse is
// run here by hand.
func TestListsSortedDistinct(t *testing.T) {
	defer func() { DisableLanes = false }()
	DisableLanes = true
	intWeights := func(r *rand.Rand, _, _ int32) float64 { return float64(1 + r.Intn(3)) }
	check := func(label string, e *Explorer, L [][]Record) {
		t.Helper()
		for v, l := range L {
			if len(l) > e.X {
				t.Fatalf("%s: vertex %d holds %d records, X=%d", label, v, len(l), e.X)
			}
			for i := 1; i < len(l); i++ {
				if e.less(l[i-1], l[i]) >= 0 {
					t.Fatalf("%s: vertex %d records %d,%d out of order: %v", label, v, i-1, i, l)
				}
			}
			for i := range l {
				for j := i + 1; j < len(l); j++ {
					if l[i].Src == l[j].Src {
						t.Fatalf("%s: vertex %d repeats source %d: %v", label, v, l[i].Src, l)
					}
				}
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.Gnm(200, 800, intWeights, seed)
		a := adj.Build(g, nil)
		p, cd := randomPartition(g, 30, r)
		for _, x := range []int{1, 4, p.Len()} {
			e := &Explorer{A: a, Part: p, CenterDist: cd, HopCap: 5, DistCap: 8, X: x}
			out := e.Detect()
			check("detect lists", e, e.Scratch.lists[:a.N])
			check("detect clusters", e, out)
			// One BFS pulse from every third cluster, seeded as BFS seeds
			// it, with X records per vertex instead of BFS's single one.
			L := e.acquireLists()
			var seeded []int32
			for c := 0; c < p.Len(); c += 3 {
				for _, v := range p.Members[c] {
					L[v] = append(L[v][:0], Record{Src: int32(c), CDist: cd[v], SeedV: v, EndV: -1})
					seeded = append(seeded, v)
				}
			}
			e.releaseLists(e.propagate(L, seeded))
			check("pulse lists", e, L)
			check("pulse clusters", e, e.aggregate(L))
		}
	}
}

// refDetect is Detect as synchronous all-vertex rounds over materialized
// candidate lists — own list, then arcs in CSR order, each extending the
// neighbor's list — selected by sortSelect, then aggregated the same way.
func refDetect(e *Explorer) [][]Record {
	n := e.A.N
	L := make([][]Record, n)
	for v := range L {
		if c := e.Part.ClusterOf[v]; c >= 0 {
			L[v] = []Record{{Src: c, CDist: e.centerDist(int32(v)), SeedV: int32(v), EndV: -1}}
		}
	}
	for round := 0; round < e.HopCap; round++ {
		next := make([][]Record, n)
		for v := range L {
			cand := slices.Clone(L[v])
			for arcI := e.A.Off[v]; arcI < e.A.Off[v+1]; arcI++ {
				w := e.A.Wt[arcI]
				for _, r := range L[e.A.Nbr[arcI]] {
					if nb := r.BDist + w; nb <= e.DistCap {
						nr := Record{Src: r.Src, BDist: nb, CDist: r.CDist + w, SeedV: r.SeedV, EndV: -1}
						if e.RecordPaths {
							nr.Path = append(slices.Clone(r.Path), arcI)
						}
						cand = append(cand, nr)
					}
				}
			}
			next[v] = sortSelect(e, cand, e.X)
		}
		L = next
	}
	out := make([][]Record, e.Part.Len())
	for c, ms := range e.Part.Members {
		var cand []Record
		for _, v := range ms {
			for _, r := range L[v] {
				r.CDist += e.centerDist(v)
				r.EndV = v
				cand = append(cand, r)
			}
		}
		out[c] = sortSelect(e, cand, e.X)
	}
	return out
}

// TestDetectMatchesSortReference runs the record path against refDetect
// on integer-weight graphs, where equal distances across sources are
// common: the early breaks must never drop a record that a tie-break on
// the center would keep, and memory paths must follow the first-offered
// tie rule.
func TestDetectMatchesSortReference(t *testing.T) {
	defer func() { DisableLanes = false }()
	DisableLanes = true
	intWeights := func(r *rand.Rand, _, _ int32) float64 { return float64(1 + r.Intn(3)) }
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.Gnm(120, 420, intWeights, seed)
		a := adj.Build(g, nil)
		p, cd := randomPartition(g, 25, r)
		for _, x := range []int{1, 2, 5} {
			for _, paths := range []bool{false, true} {
				e := &Explorer{A: a, Part: p, CenterDist: cd, HopCap: 4, DistCap: 6, X: x, RecordPaths: paths}
				want := refDetect(e)
				got := e.Detect()
				for c := range want {
					if !slices.EqualFunc(got[c], want[c], func(a, b Record) bool {
						return sameRecord(a, b) && slices.Equal(a.Path, b.Path)
					}) {
						t.Fatalf("seed %d x=%d paths=%v cluster %d:\n got %v\nwant %v", seed, x, paths, c, got[c], want[c])
					}
				}
			}
		}
	}
}
