package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

func registryGraph(n int, seed int64) *graph.Graph {
	return graph.Gnm(n, 3*n, graph.UniformWeights(1, 6), seed)
}

func waitReady(t *testing.T, r *Registry, name string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx, name); err != nil {
		t.Fatalf("WaitReady(%s): %v", name, err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	defer r.Close()

	if err := r.Add("road", GraphSource(registryGraph(120, 1), WithEpsilon(0.25))); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("road", GraphSource(registryGraph(120, 1))); !errors.Is(err, ErrDuplicateGraph) {
		t.Fatalf("duplicate Add: %v", err)
	}
	if _, err := r.Dist("nope", 0); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
	waitReady(t, r, "road")

	gi, err := r.Info("road")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Status != StatusReady || gi.Version != 1 || gi.N != 120 || gi.MemoryBytes <= 0 {
		t.Fatalf("info: %+v", gi)
	}
	d, err := r.Dist("road", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 120 {
		t.Fatalf("dist len %d", len(d))
	}
	// The registry answers bit-identically to a directly built engine.
	ref, err := New(registryGraph(120, 1), WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Dist(0)
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("v %d: registry %v vs direct %v", v, d[v], want[v])
		}
	}
	st := r.Stats()
	if st.Graphs != 1 || st.Ready != 1 || st.BuildsDone != 1 || st.Queries == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if err := r.Remove("road"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dist("road", 0); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("after remove: %v", err)
	}
}

func TestRegistryBuildFailureAndRecovery(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	defer r.Close()

	boom := errors.New("disk on fire")
	var fail atomic.Bool
	fail.Store(true)
	src := func(ctx context.Context, opts ...Option) (Backend, error) {
		if fail.Load() {
			return nil, boom
		}
		return New(registryGraph(80, 2), append(opts, WithEpsilon(0.3))...)
	}
	if err := r.Add("flaky", src); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx, "flaky"); !errors.Is(err, boom) {
		t.Fatalf("WaitReady on failed build: %v", err)
	}
	if _, err := r.Dist("flaky", 0); !errors.Is(err, ErrGraphNotReady) || !errors.Is(err, boom) {
		t.Fatalf("query on failed graph: %v", err)
	}
	fail.Store(false)
	if err := r.Reload("flaky"); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "flaky")
	if _, err := r.Dist("flaky", 0); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestRegistryBuildCancellation(t *testing.T) {
	r := NewRegistry(RegistryConfig{BuildWorkers: 1})
	started := make(chan struct{})
	src := func(ctx context.Context, opts ...Option) (Backend, error) {
		close(started)
		<-ctx.Done() // a build that never finishes on its own
		return nil, ctx.Err()
	}
	if err := r.Add("stuck", src); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("build never started")
	}
	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel the in-flight build")
	}
}

// TestRegistryReloadMidBuildReReadsSource pins the rewrite-then-reload
// contract: a Reload that lands while another build is in flight must
// trigger one more build afterwards, because the in-flight build may have
// read the source before the caller's rewrite.
func TestRegistryReloadMidBuildReReadsSource(t *testing.T) {
	r := NewRegistry(RegistryConfig{BuildWorkers: 1})
	defer r.Close()

	var content atomic.Int64 // stands in for the snapshot file's bits
	content.Store(10)
	firstStarted := make(chan struct{})
	gate := make(chan struct{})
	var builds atomic.Int64
	src := func(ctx context.Context, opts ...Option) (Backend, error) {
		seed := content.Load() // "open the file" at build start
		if builds.Add(1) == 1 {
			close(firstStarted)
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return New(registryGraph(80, seed), append(opts, WithEpsilon(0.3))...)
	}
	if err := r.Add("g", src); err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("first build never started")
	}
	content.Store(20) // rewrite the source while build 1 holds the old bits
	if err := r.Reload("g"); err != nil {
		t.Fatal(err)
	}
	close(gate)

	deadline := time.Now().Add(30 * time.Second)
	for {
		gi, err := r.Info("g")
		if err != nil {
			t.Fatal(err)
		}
		if gi.Version >= 2 && gi.Status == StatusReady && !gi.Reloading {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follow-up build never published: %+v", gi)
		}
		time.Sleep(time.Millisecond)
	}
	ref, err := New(registryGraph(80, 20), WithEpsilon(0.3))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Dist(0)
	got, err := r.Dist("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("v %d: served %v, want the rewritten source's %v", v, got[v], want[v])
		}
	}
}

func TestRegistryEviction(t *testing.T) {
	// A budget small enough for one engine: adding a second evicts the
	// colder one; touching the evicted graph re-enqueues its build.
	probe, err := New(registryGraph(100, 1), WithEpsilon(0.3))
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MemoryBytes() + probe.MemoryBytes()/2

	r := NewRegistry(RegistryConfig{MemoryBudget: budget})
	defer r.Close()
	if err := r.Add("g1", GraphSource(registryGraph(100, 1), WithEpsilon(0.3))); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g1")
	if _, err := r.Dist("g1", 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("g2", GraphSource(registryGraph(100, 2), WithEpsilon(0.3))); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g2")

	gi, err := r.Info("g1")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Status != StatusEvicted {
		t.Fatalf("g1 not evicted: %+v (budget %d)", gi, budget)
	}
	if r.Stats().Evictions == 0 {
		t.Fatal("eviction counter not bumped")
	}
	// Demand warms the cold graph back up.
	if _, err := r.Dist("g1", 0); !errors.Is(err, ErrGraphNotReady) {
		t.Fatalf("query on evicted graph: %v", err)
	}
	waitReady(t, r, "g1")
	if _, err := r.Dist("g1", 0); err != nil {
		t.Fatalf("after rebuild: %v", err)
	}
}

// TestRegistryConformanceHotReload is the -race conformance test of the
// acceptance criteria: K=3 graphs served concurrently while one of them is
// rebuilt and hot-swapped repeatedly. Invariants:
//
//   - zero failed queries (the old engine serves until the swap);
//   - no answer ever mixes engine versions: every distance vector read
//     through one handle is bit-identical to the reference vector of the
//     exact version the handle pins;
//   - swapped-out engines drain (the draining gauge returns to 0);
//   - the goroutine count settles back after Close (no leaks).
func TestRegistryConformanceHotReload(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const n = 100
	seeds := []int64{10, 20} // version v of "hot" is built from seeds[(v-1)%2]
	refs := make([][]float64, 2)
	for i, seed := range seeds {
		eng, err := New(registryGraph(n, seed), WithEpsilon(0.3))
		if err != nil {
			t.Fatal(err)
		}
		if refs[i], err = eng.Dist(0); err != nil {
			t.Fatal(err)
		}
	}
	same := true
	for v := range refs[0] {
		if refs[0][v] != refs[1][v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reference versions are indistinguishable; the mixing check would be vacuous")
	}

	r := NewRegistry(RegistryConfig{BuildWorkers: 2})
	var builds atomic.Int64
	hotSrc := func(ctx context.Context, opts ...Option) (Backend, error) {
		v := builds.Add(1)
		return New(registryGraph(n, seeds[(v-1)%2]), append(opts, WithEpsilon(0.3))...)
	}
	if err := r.Add("hot", hotSrc); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"steady1", "steady2"} {
		if err := r.Add(name, GraphSource(registryGraph(n, 30), WithEpsilon(0.3))); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"hot", "steady1", "steady2"} {
		waitReady(t, r, name)
	}
	steadyRef, err := r.Dist("steady1", 0)
	if err != nil {
		t.Fatal(err)
	}

	const (
		queriers   = 8
		iterations = 60
		reloads    = 4
	)
	var failed atomic.Int64
	var mixed atomic.Int64
	var wg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			names := []string{"hot", "steady1", "steady2"}
			for i := 0; i < iterations; i++ {
				name := names[(q+i)%len(names)]
				h, err := r.Acquire(name)
				if err != nil {
					failed.Add(1)
					continue
				}
				d, err := h.Engine().Dist(0)
				if err != nil {
					failed.Add(1)
					h.Release()
					continue
				}
				// The answer must be bit-identical to the reference for
				// the exact version this handle pins.
				want := steadyRef
				if name == "hot" {
					want = refs[(h.Version()-1)%2]
				}
				for v := range want {
					if d[v] != want[v] {
						mixed.Add(1)
						break
					}
				}
				h.Release()
			}
		}(q)
	}
	// Hot-reload mid-flight: each reload flips the hot graph between two
	// distinguishable versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			before, err := r.Info("hot")
			if err != nil {
				t.Error(err)
				return
			}
			if err := r.Reload("hot"); err != nil {
				t.Error(err)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				gi, err := r.Info("hot")
				if err != nil {
					t.Error(err)
					return
				}
				if gi.Version > before.Version {
					break
				}
				if time.Now().After(deadline) {
					t.Error("reload never published")
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()

	if f := failed.Load(); f != 0 {
		t.Fatalf("%d queries failed during hot reload", f)
	}
	if m := mixed.Load(); m != 0 {
		t.Fatalf("%d answers mixed engine versions", m)
	}
	gi, err := r.Info("hot")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Version < int64(1+reloads) {
		t.Fatalf("hot graph version %d after %d reloads", gi.Version, reloads)
	}

	r.Close()

	// Swapped-out engines must fully drain and goroutines settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r.Stats().Draining == 0 && runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: draining=%d goroutines=%d (baseline %d)",
				r.Stats().Draining, runtime.NumGoroutine(), baseline)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegistrySnapshotReloadRoundTrip covers the snapshot path of the
// acceptance criteria: a graph served from a snapshot file is hot-swapped
// by overwriting the file and reloading, with no downtime and the new
// bits served afterwards.
func TestRegistrySnapshotReloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "city.snap")
	writeSnap := func(seed int64) *Engine {
		eng, err := New(registryGraph(90, seed), WithEpsilon(0.3))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SaveSnapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	v1 := writeSnap(5)

	r := NewRegistry(RegistryConfig{})
	defer r.Close()
	if err := r.Add("city", SnapshotSource(path)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "city")
	got, err := r.Dist("city", 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := v1.Dist(3)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("v1 mismatch at %d", v)
		}
	}

	v2 := writeSnap(6)
	if err := r.Reload("city"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		gi, err := r.Info("city")
		if err != nil {
			t.Fatal(err)
		}
		if gi.Version == 2 {
			break
		}
		// No downtime while the reload is in flight.
		if _, err := r.Dist("city", 3); err != nil {
			t.Fatalf("query failed mid-reload: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("reload never published")
		}
		time.Sleep(time.Millisecond)
	}
	got2, err := r.Dist("city", 3)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := v2.Dist(3)
	for v := range want2 {
		if got2[v] != want2[v] {
			t.Fatalf("v2 mismatch at %d", v)
		}
	}
}

// TestRegistryWaitReadyContext ensures WaitReady respects its context.
func TestRegistryWaitReadyContext(t *testing.T) {
	r := NewRegistry(RegistryConfig{BuildWorkers: 1})
	defer r.Close()
	block := make(chan struct{})
	defer close(block)
	src := func(ctx context.Context, opts ...Option) (Backend, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, fmt.Errorf("never ready")
	}
	if err := r.Add("slow", src); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := r.WaitReady(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitReady: %v", err)
	}
}

// TestAddReadyImmediatelyReady: AddReady publishes the backend before it
// returns, so an Acquire straight after it never sees a pending graph
// (run with -race). An AddReady racing Close either lands or reports
// ErrRegistryClosed.
func TestAddReadyImmediatelyReady(t *testing.T) {
	eng, err := New(registryGraph(40, 5), WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := NewRegistry(RegistryConfig{})
		if err := r.AddReady("g", eng); err != nil {
			t.Fatal(err)
		}
		h, err := r.Acquire("g")
		if err != nil {
			t.Fatalf("iteration %d: Acquire right after AddReady: %v", i, err)
		}
		if h.Version() != 1 || h.Engine() != Backend(eng) {
			t.Fatalf("iteration %d: handle version %d, engine %v", i, h.Version(), h.Engine())
		}
		h.Release()

		done := make(chan error, 1)
		go func() { done <- r.AddReady("h", eng) }()
		r.Close()
		if err := <-done; err != nil && !errors.Is(err, ErrRegistryClosed) {
			t.Fatalf("iteration %d: AddReady racing Close: %v", i, err)
		}
	}
}
