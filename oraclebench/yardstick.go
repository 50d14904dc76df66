package main

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"repro/internal/graph"
)

// yardstick is the benchmark's own exact single-source shortest paths: a
// textbook binary-heap Dijkstra over a CSR copy of the graph's edges. Every
// reference row is checked against it, and the gated end-to-end ratios are
// taken against it. It lives in the benchmark, so that no change to the
// program moves it.
type yardstick struct {
	off []int32
	nbr []int32
	wt  []float64
}

func newYardstick(g *graph.Graph) *yardstick {
	y := &yardstick{off: make([]int32, g.N+1)}
	for _, e := range g.Edges {
		y.off[e.U+1]++
		y.off[e.V+1]++
	}
	for v := range g.N {
		y.off[v+1] += y.off[v]
	}
	y.nbr = make([]int32, y.off[g.N])
	y.wt = make([]float64, y.off[g.N])
	next := append([]int32(nil), y.off[:g.N]...)
	for _, e := range g.Edges {
		y.nbr[next[e.U]], y.wt[next[e.U]] = e.V, e.W
		next[e.U]++
		y.nbr[next[e.V]], y.wt[next[e.V]] = e.U, e.W
		next[e.V]++
	}
	return y
}

type heapItem struct {
	d float64
	v int32
}

// dist returns the exact distances from s, +Inf where unreachable.
func (y *yardstick) dist(s int32) []float64 {
	d := make([]float64, len(y.off)-1)
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[s] = 0
	h := []heapItem{{0, s}}
	for len(h) > 0 {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; { // sift down
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].d < h[c].d {
				c++
			}
			if h[i].d <= h[c].d {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		if top.d > d[top.v] {
			continue
		}
		for a := y.off[top.v]; a < y.off[top.v+1]; a++ {
			u, du := y.nbr[a], top.d+y.wt[a]
			if du >= d[u] {
				continue
			}
			d[u] = du
			h = append(h, heapItem{du, u})
			for i := len(h) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		}
	}
	return d
}

// handler serves GET /graphs/<name>/dist?source=s&target=t from the
// yardstick, one Dijkstra per request: the naive exact server that the
// serving workloads' requests are interleaved with.
func (y *yardstick) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /graphs/"+graphName+"/dist", func(w http.ResponseWriter, r *http.Request) {
		n := len(y.off) - 1
		s, err1 := strconv.Atoi(r.URL.Query().Get("source"))
		t, err2 := strconv.Atoi(r.URL.Query().Get("target"))
		if err1 != nil || err2 != nil || s < 0 || s >= n || t < 0 || t >= n {
			http.Error(w, "bad source or target", http.StatusBadRequest)
			return
		}
		var resp distResp
		if d := y.dist(int32(s))[t]; !math.IsInf(d, 1) {
			resp.Dist = &d
		}
		w.Header().Set("Content-Type", "application/json")
		// A failed write shows up at the client as a failed request.
		_ = json.NewEncoder(w).Encode(resp)
	})
	return mux
}
