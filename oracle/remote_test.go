package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestRemoteErrorRoundTrip pins the wire contract for every typed
// sentinel: an error raised inside one serve process must arrive in
// another process's RemoteBackend with errors.Is still matching —
// writeError encodes the code, RemoteBackend decodes it back. The
// expected HTTP statuses are asserted too, because the status class is
// the fallback decode for servers that predate the code field.
func TestRemoteErrorRoundTrip(t *testing.T) {
	wantStatus := map[string]int{
		"not_built":            http.StatusServiceUnavailable,
		"vertex_out_of_range":  http.StatusBadRequest,
		"need_path_reporting":  http.StatusBadRequest,
		"need_sources":         http.StatusBadRequest,
		"snapshot_unsupported": http.StatusInternalServerError,
		"unsupported":          http.StatusNotImplemented,
		"offsets_mismatch":     http.StatusBadRequest,
		"unknown_graph":        http.StatusNotFound,
		"graph_not_ready":      http.StatusServiceUnavailable,
		"duplicate_graph":      http.StatusInternalServerError,
		"registry_closed":      http.StatusServiceUnavailable,
	}
	for _, ec := range errorCodes {
		ec := ec
		t.Run(ec.code, func(t *testing.T) {
			// The server raises the sentinel wrapped in extra context, as
			// real handlers do.
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				writeError(w, fmt.Errorf("handler context: %w", ec.err))
			}))
			defer srv.Close()

			rb := NewRemoteBackend(srv.URL, "g", nil)
			_, err := rb.Dist(0)
			if err == nil {
				t.Fatal("remote call returned nil error")
			}
			if !errors.Is(err, ec.err) {
				t.Fatalf("errors.Is(%v, %v) = false after HTTP round trip", err, ec.err)
			}
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("round-tripped error %v is not a *RemoteError", err)
			}
			if re.Code != ec.code {
				t.Fatalf("wire code = %q, want %q", re.Code, ec.code)
			}
			if want := wantStatus[ec.code]; re.Status != want {
				t.Fatalf("status = %d, want %d", re.Status, want)
			}
			// Typed answers are definitive: identical on every replica, so
			// the router must never fail them over.
			if IsRemoteTransient(err) && wantStatus[ec.code] < 500 {
				t.Fatalf("typed %s classified transient", ec.code)
			}
		})
	}
}

// TestRemoteErrorStatusFallback covers servers that answer without a code
// field: the status class alone must still decode to the right sentinel
// (501 → ErrUnsupported, 404 → ErrUnknownGraph, 503 → ErrGraphNotReady),
// and anything else to ErrRemote.
func TestRemoteErrorStatusFallback(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   error
	}{
		{http.StatusNotImplemented, ErrUnsupported},
		{http.StatusNotFound, ErrUnknownGraph},
		{http.StatusServiceUnavailable, ErrGraphNotReady},
		{http.StatusInternalServerError, ErrRemote},
		{http.StatusBadRequest, ErrRemote},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "plain failure", tc.status)
		}))
		rb := NewRemoteBackend(srv.URL, "g", nil)
		_, err := rb.Dist(0)
		srv.Close()
		if !errors.Is(err, tc.want) {
			t.Fatalf("status %d: errors.Is(%v, %v) = false", tc.status, err, tc.want)
		}
	}
}

// TestIsRemoteTransient pins the failover classification: transport
// errors and 5xx/429 may succeed on another replica; typed 400s/501s are
// deterministic answers and must not be retried.
func TestIsRemoteTransient(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{&RemoteError{Status: 0, Msg: "dial refused"}, true},
		{&RemoteError{Status: http.StatusInternalServerError}, true},
		{&RemoteError{Status: http.StatusServiceUnavailable}, true},
		{&RemoteError{Status: http.StatusTooManyRequests}, true},
		{&RemoteError{Status: http.StatusNotImplemented}, false},
		{&RemoteError{Status: http.StatusBadRequest}, false},
		{&RemoteError{Status: http.StatusNotFound}, false},
		{fmt.Errorf("wrapped: %w", &RemoteError{Status: 0}), true},
		{errors.New("not remote at all"), false},
		{nil, false},
	} {
		if got := IsRemoteTransient(tc.err); got != tc.want {
			t.Fatalf("IsRemoteTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	// A dead server produces a transport-level RemoteError (status 0).
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()
	_, err := NewRemoteBackend(url, "g", nil).Dist(0)
	if err == nil || !IsRemoteTransient(err) {
		t.Fatalf("dead-server error %v not classified transient", err)
	}
}

// TestRemoteBackendMatchesEngine drives every Backend method through a
// real registry handler and asserts the remote answers are bit-identical
// to the local engine's — the determinism-over-the-wire premise the
// distributed router is built on (float64 survives JSON exactly,
// including +Inf for unreachable vertices).
func TestRemoteBackendMatchesEngine(t *testing.T) {
	// Two components: vertex n-1 is unreachable, so Inf crosses the wire.
	g := graph.Gnm(60, 150, graph.UniformWeights(1, 9), 7)
	gg, err := graph.FromEdges(61, g.Edges)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(gg, WithEpsilon(0.3), WithPathReporting())
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	if err := reg.Add("g", func(ctx context.Context, opts ...Option) (Backend, error) {
		return eng, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.WaitReady(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewRegistryHandler(reg))
	defer srv.Close()
	rb := NewRemoteBackend(srv.URL, "g", nil)

	if rb.N() != eng.N() {
		t.Fatalf("N = %d, want %d", rb.N(), eng.N())
	}
	if rb.MemoryBytes() != eng.MemoryBytes() {
		t.Fatalf("MemoryBytes = %d, want %d", rb.MemoryBytes(), eng.MemoryBytes())
	}

	wantDist, err := eng.Dist(0)
	if err != nil {
		t.Fatal(err)
	}
	gotDist, err := rb.Dist(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDist, wantDist) {
		t.Fatal("remote Dist differs from local engine")
	}
	if !math.IsInf(gotDist[60], 1) {
		t.Fatalf("unreachable vertex crossed the wire as %v, want +Inf", gotDist[60])
	}

	for _, target := range []int32{5, 60} {
		want, err := eng.DistTo(0, target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rb.DistTo(0, target)
		if err != nil {
			t.Fatal(err)
		}
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("DistTo(0,%d) = %v, want %v", target, got, want)
		}
	}

	sources := []int32{0, 7, 41}
	wantRows, err := eng.MultiSource(sources)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := rb.MultiSource(sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatal("remote MultiSource differs from local engine")
	}

	wantNear, err := eng.Nearest(sources)
	if err != nil {
		t.Fatal(err)
	}
	gotNear, err := rb.Nearest(sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNear, wantNear) {
		t.Fatal("remote Nearest differs from local engine")
	}

	offsets := []float64{0, 2.5, 1}
	wantOff, err := eng.NearestWithOffsets(sources, offsets)
	if err != nil {
		t.Fatal(err)
	}
	gotOff, err := rb.NearestWithOffsets(sources, offsets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotOff, wantOff) {
		t.Fatal("remote NearestWithOffsets differs from local engine")
	}

	wantPath, wantLen, err := eng.Path(0, 41)
	if err != nil {
		t.Fatal(err)
	}
	gotPath, gotLen, err := rb.Path(0, 41)
	if err != nil {
		t.Fatal(err)
	}
	if gotLen != wantLen || !reflect.DeepEqual(gotPath, wantPath) {
		t.Fatalf("remote Path = (%v, %v), want (%v, %v)", gotPath, gotLen, wantPath, wantLen)
	}
	// Unreachable pair: both report +Inf and no path, identically.
	_, noLen, err := rb.Path(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(noLen, 1) {
		t.Fatalf("unreachable path length = %v, want +Inf", noLen)
	}

	wantTree, err := eng.Tree(0)
	if err != nil {
		t.Fatal(err)
	}
	gotTree, err := rb.Tree(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTree, wantTree) {
		t.Fatal("remote Tree differs from local engine")
	}

	targets := []int32{1, 60, 30}
	wantM, err := eng.Matrix(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := rb.Matrix(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatal("remote Matrix differs from local engine")
	}

	info := rb.Describe()
	want := eng.Describe()
	if info.HopsetEdges != want.HopsetEdges || info.Shards != want.Shards {
		t.Fatalf("Describe = %+v, want %+v", info, want)
	}

	// Typed errors cross the wire from the real handler too, not just the
	// synthetic one: vertex out of range and unknown graph.
	if _, err := rb.Dist(10_000); !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("remote out-of-range error = %v, want ErrVertexOutOfRange", err)
	}
	if _, err := NewRemoteBackend(srv.URL, "nope", nil).Dist(0); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("remote unknown-graph error = %v, want ErrUnknownGraph", err)
	}
	ok, err := rb.Ready(context.Background())
	if err != nil || !ok {
		t.Fatalf("Ready = (%v, %v), want (true, nil)", ok, err)
	}
	if err := rb.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
}

// TestRemoteBackendRejectsBadShapes: a worker answering /matrix or /multi
// with the wrong number of rows, or with short or ragged rows, gets a
// typed *RemoteError (ErrRemote) instead of a malformed result the
// router's stitching would index out of range.
func TestRemoteBackendRejectsBadShapes(t *testing.T) {
	sources, targets := []int32{0, 1}, []int32{0, 1, 2}
	for _, c := range []struct {
		name, body string
		call       func(*RemoteBackend) error
	}{
		{"matrix short row", `{"matrix":[[1,2,3],[1,2]]}`, func(b *RemoteBackend) error {
			_, err := b.Matrix(sources, targets)
			return err
		}},
		{"matrix row count", `{"matrix":[[1,2,3]]}`, func(b *RemoteBackend) error {
			_, err := b.Matrix(sources, targets)
			return err
		}},
		{"matrix missing", `{}`, func(b *RemoteBackend) error {
			_, err := b.Matrix(sources, targets)
			return err
		}},
		{"multi row count", `{"rows":[[0,1,2],[1,0,1],[2,1,0]]}`, func(b *RemoteBackend) error {
			_, err := b.MultiSource(sources)
			return err
		}},
		{"multi short row", `{"rows":[[0,1,2],[1,0]]}`, func(b *RemoteBackend) error {
			_, err := b.MultiSource(sources)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, c.body)
			}))
			defer srv.Close()
			err := c.call(NewRemoteBackend(srv.URL, "g", nil))
			var re *RemoteError
			if !errors.As(err, &re) || !errors.Is(err, ErrRemote) {
				t.Fatalf("err = %v, want a *RemoteError matching ErrRemote", err)
			}
		})
	}

	// Well-shaped answers still pass, nulls decoding to +Inf.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/graphs/g/matrix" {
			fmt.Fprint(w, `{"matrix":[[0,1,null],[1,0,1]]}`)
			return
		}
		fmt.Fprint(w, `{"rows":[[0,1],[1,0]]}`)
	}))
	defer srv.Close()
	b := NewRemoteBackend(srv.URL, "g", nil)
	m, err := b.Matrix(sources, targets)
	if err != nil || len(m) != 2 || !math.IsInf(m[0][2], 1) {
		t.Fatalf("well-shaped matrix = %v, %v", m, err)
	}
	if rows, err := b.MultiSource(sources); err != nil || len(rows) != 2 {
		t.Fatalf("well-shaped multi = %v, %v", rows, err)
	}
}
