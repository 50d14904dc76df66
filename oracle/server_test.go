package oracle

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
)

// newTestServer serves one path-reporting engine as graph "g" through
// the registry handler, with the hot-pair cache on as in cmd/serve.
func newTestServer(t *testing.T) (*Engine, *graph.Graph, *httptest.Server) {
	t.Helper()
	g := graph.Gnm(200, 800, graph.UniformWeights(1, 8), 11)
	eng, err := New(g, WithEpsilon(0.25), WithPathReporting())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(RegistryConfig{HotPairCache: 64})
	t.Cleanup(r.Close)
	if err := r.AddReady("g", eng); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewRegistryHandler(r))
	t.Cleanup(srv.Close)
	return eng, g, srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestServerDistEndToEnd: GET /graphs/{name}/dist on a generated graph returns scalar
// and vector answers that satisfy the (1+ε) guarantee against Dijkstra.
func TestServerDistEndToEnd(t *testing.T) {
	_, g, srv := newTestServer(t)
	ref, _ := exact.DijkstraGraph(g, 0)

	var scalar struct {
		Source int32    `json:"source"`
		Target int32    `json:"target"`
		Dist   *float64 `json:"dist"`
	}
	if code := getJSON(t, srv.URL+"/graphs/g/dist?source=0&target=99", &scalar); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if scalar.Dist == nil {
		t.Fatal("vertex 99 unexpectedly unreachable")
	}
	if *scalar.Dist < ref[99]-1e-9 || *scalar.Dist > 1.25*ref[99]+1e-9 {
		t.Errorf("served dist %v outside [d, 1.25d] for exact %v", *scalar.Dist, ref[99])
	}

	var vector struct {
		Source int32      `json:"source"`
		Dist   []*float64 `json:"dist"`
	}
	if code := getJSON(t, srv.URL+"/graphs/g/dist?source=0", &vector); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(vector.Dist) != g.N {
		t.Fatalf("vector length %d, want %d", len(vector.Dist), g.N)
	}
	for v, d := range vector.Dist {
		if math.IsInf(ref[v], 1) {
			if d != nil {
				t.Errorf("vertex %d: unreachable but served %v", v, *d)
			}
			continue
		}
		if d == nil || *d < ref[v]-1e-9 || *d > 1.25*ref[v]+1e-9 {
			t.Errorf("vertex %d: served %v outside [d, 1.25d] for exact %v", v, d, ref[v])
		}
	}
}

// TestServerPathAndStats: a served path is a real walk of the graph whose
// edge weights sum to the served length, and the per-graph stats report
// the graph, its hopset and the relaxation engine's counters.
func TestServerPathAndStats(t *testing.T) {
	eng, g, srv := newTestServer(t)
	var pr struct {
		Path   []int32  `json:"path"`
		Length *float64 `json:"length"`
	}
	dest := int32(g.N - 1)
	if code := getJSON(t, fmt.Sprintf("%s/graphs/g/path?from=0&to=%d", srv.URL, dest), &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if pr.Length == nil || len(pr.Path) == 0 {
		t.Fatal("expected a concrete path")
	}
	if pr.Path[0] != 0 || pr.Path[len(pr.Path)-1] != dest {
		t.Errorf("path endpoints %v", pr.Path)
	}
	// Every consecutive pair must be a real graph edge.
	var total float64
	for i := 1; i < len(pr.Path); i++ {
		w, ok := g.HasEdge(pr.Path[i-1], pr.Path[i])
		if !ok {
			t.Fatalf("served path uses non-edge (%d,%d)", pr.Path[i-1], pr.Path[i])
		}
		total += w
	}
	if math.Abs(total-*pr.Length) > 1e-6 {
		t.Errorf("path weighs %v, served length %v", total, *pr.Length)
	}

	var st struct {
		Graph  GraphInfo `json:"graph"`
		Engine Stats     `json:"engine"`
	}
	if code := getJSON(t, srv.URL+"/graphs/g/stats", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Graph.N != g.N || st.Graph.HopsetEdges != eng.Hopset().Size() || st.Graph.Status != StatusReady {
		t.Errorf("stats graph %+v", st.Graph)
	}
	if st.Engine.PathQueries < 1 || st.Engine.TreeQueries < 1 {
		t.Errorf("stats engine %+v", st.Engine)
	}
	// The relaxation engine's per-query scanned-arc accounting must be
	// served: the tree query above ran at least one exploration.
	rx := st.Engine.Relax
	if rx.Explorations < 1 || rx.ScannedArcs <= 0 || rx.ArcsPerExploration <= 0 {
		t.Errorf("stats relax %+v", rx)
	}
	if rx.DenseRounds+rx.SparseRounds <= 0 {
		t.Errorf("stats relax rounds %+v", rx)
	}
}

// TestServerErrors: malformed and out-of-range vertex parameters are 400s
// with an error body on every query route.
func TestServerErrors(t *testing.T) {
	_, _, srv := newTestServer(t)
	for url, want := range map[string]int{
		"/graphs/g/dist":                   http.StatusBadRequest, // missing source
		"/graphs/g/dist?source=abc":        http.StatusBadRequest,
		"/graphs/g/dist?source=100000":     http.StatusBadRequest, // out of range
		"/graphs/g/dist?source=0&target=x": http.StatusBadRequest,
		"/graphs/g/path?from=0":            http.StatusBadRequest, // missing to
		"/graphs/g/path?from=0&to=-5":      http.StatusBadRequest,
	} {
		var body map[string]any
		if code := getJSON(t, srv.URL+url, &body); code != want {
			t.Errorf("GET %s: status %d, want %d (%v)", url, code, want, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("GET %s: no error field in %v", url, body)
		}
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}
