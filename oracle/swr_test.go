package oracle

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// versionedSource builds a 3-vertex path graph whose edge weights encode
// the build number: the Nth successful build answers Dist(0)[1] == N.
// Because the registry runs at most one build per entry at a time and
// these builds never fail, build number N is published as version N —
// so every served row must satisfy dist[1] == float64(version), which is
// the cross-version-mixing detector the SWR tests lean on.
func versionedSource(counter *atomic.Int64, base float64) EngineSource {
	return func(ctx context.Context, opts ...Option) (Backend, error) {
		n := counter.Add(1)
		w := base + float64(n)
		g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: w}, {U: 1, V: 2, W: w}})
		if err != nil {
			return nil, err
		}
		return New(g, append(opts, WithEpsilon(0.25))...)
	}
}

// TestDistSWRReloadHammer hammers DistSWR from many goroutines (run with
// -race) while the main goroutine drives hot reload after hot reload.
// Invariants: once the graph is first ready, no query ever fails, and no
// response ever mixes versions — the row's payload must match the
// version tag it carries, whether the response is fresh or stale.
func TestDistSWRReloadHammer(t *testing.T) {
	r := NewRegistry(RegistryConfig{HotPairCache: 64})
	defer r.Close()

	var builds atomic.Int64
	if err := r.Add("g", versionedSource(&builds, 0)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g")

	var (
		stop     atomic.Bool
		failures atomic.Int64
		mixed    atomic.Int64
		served   atomic.Int64
		stale    atomic.Int64
	)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(src int32) {
			defer wg.Done()
			for !stop.Load() {
				res, err := r.DistSWR("g", src)
				if err != nil {
					failures.Add(1)
					continue
				}
				served.Add(1)
				if res.Stale {
					stale.Add(1)
				}
				// dist[1] encodes the build that produced the row; it must
				// equal the version the response claims, fresh or stale.
				if res.Dist[1] != float64(res.Version) {
					mixed.Add(1)
				}
			}
		}(int32((w % 2) * 2)) // two hot sources (0 and 2; both have dist[1]==w)
	}

	// Drive reloads 2..6, waiting for each to land before the next so
	// build numbers and published versions stay in lockstep.
	for want := int64(2); want <= 6; want++ {
		if err := r.Reload("g"); err != nil {
			t.Fatalf("Reload: %v", err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			gi, err := r.Info("g")
			if err != nil {
				t.Fatalf("Info: %v", err)
			}
			if gi.Version >= want && !gi.Reloading {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reload to version %d never landed", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Errorf("%d queries failed during hot reloads (want 0)", f)
	}
	if m := mixed.Load(); m != 0 {
		t.Errorf("%d responses mixed row and version (want 0)", m)
	}
	if served.Load() == 0 {
		t.Fatal("hammer served nothing")
	}
	st := r.Stats()
	if st.HotPair == nil {
		t.Fatal("HotPair stats missing")
	}
	if st.HotPair.Hits == 0 {
		t.Error("expected fresh hot-pair hits under a two-source hammer")
	}
	t.Logf("served=%d stale=%d hotpair=%+v", served.Load(), stale.Load(), *st.HotPair)
}

// TestDistSWRStaleThenFresh pins the single-threaded SWR lifecycle: a
// cached row turns stale the moment a reload publishes a new version, is
// served with the old version tag and Stale=true, and the background
// revalidation flips it fresh at the new version.
func TestDistSWRStaleThenFresh(t *testing.T) {
	r := NewRegistry(RegistryConfig{HotPairCache: 64})
	defer r.Close()
	var builds atomic.Int64
	if err := r.Add("g", versionedSource(&builds, 0)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g")

	res, err := r.DistSWR("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || res.Version != 1 || res.Dist[1] != 1 {
		t.Fatalf("first answer = %+v, want fresh v1", res)
	}

	if err := r.Reload("g"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		gi, _ := r.Info("g")
		if gi.Version == 2 && !gi.Reloading {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reload never landed")
		}
		time.Sleep(time.Millisecond)
	}

	res, err = r.DistSWR("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stale || res.Version != 1 || res.Dist[1] != 1 {
		t.Fatalf("post-reload answer = %+v, want stale v1", res)
	}

	// The stale hit kicked a revalidation; it lands asynchronously.
	deadline = time.Now().Add(30 * time.Second)
	for {
		res, err = r.DistSWR("g", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("revalidation never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if res.Version != 2 || res.Dist[1] != 2 {
		t.Fatalf("revalidated answer = %+v, want fresh v2", res)
	}
	st := r.Stats().HotPair
	if st.StaleHits == 0 || st.Revalidations == 0 {
		t.Fatalf("hot-pair stats = %+v, want stale hits and a revalidation", *st)
	}
}

// TestDistSWRPurgeOnRemove: removing a graph drops its hot rows, so a
// re-registration under the same name (whose version counter restarts at
// 1) can never serve the removed generation's rows as fresh.
func TestDistSWRPurgeOnRemove(t *testing.T) {
	r := NewRegistry(RegistryConfig{HotPairCache: 64})
	defer r.Close()
	var builds1 atomic.Int64
	if err := r.Add("g", versionedSource(&builds1, 0)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g")
	if _, err := r.DistSWR("g", 0); err != nil { // cache row at v1, dist[1]=1
		t.Fatal(err)
	}
	if err := r.Remove("g"); err != nil {
		t.Fatal(err)
	}

	// Same name, new generation: weights offset by 100 expose aliasing.
	var builds2 atomic.Int64
	if err := r.Add("g", versionedSource(&builds2, 100)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g")
	res, err := r.DistSWR("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || res.Version != 1 || res.Dist[1] != 101 {
		t.Fatalf("post-re-add answer = %+v, want fresh v1 of the new generation (dist[1]=101)", res)
	}
}

// TestDistSWRPurgeOnEvict is the regression test for the eviction half
// of hot-row hygiene: Remove purged the graph's rows but memory-budget
// eviction did not, so an evicted graph kept serving cached rows with no
// rebuild in flight to ever revalidate them — an unbounded staleness
// window, holding memory against the very budget that evicted the
// engine. Eviction must drop the rows with the engine: a query on the
// evicted graph fails not-ready (and enqueues the rebuild) instead of
// serving from the dead generation, and the rebuilt graph answers fresh.
func TestDistSWRPurgeOnEvict(t *testing.T) {
	var probeBuilds atomic.Int64
	probe, err := versionedSource(&probeBuilds, 0)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MemoryBytes() + probe.MemoryBytes()/2

	r := NewRegistry(RegistryConfig{HotPairCache: 64, MemoryBudget: budget})
	defer r.Close()
	var builds1, builds2 atomic.Int64
	if err := r.Add("g1", versionedSource(&builds1, 0)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g1")
	if res, err := r.DistSWR("g1", 0); err != nil || res.Dist[1] != 1 {
		t.Fatalf("seed row: %+v, %v", res, err) // cache a v1 row
	}

	// A second graph overflows the budget; g1 (colder) is evicted.
	if err := r.Add("g2", versionedSource(&builds2, 50)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g2")
	gi, err := r.Info("g1")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Status != StatusEvicted {
		t.Fatalf("g1 not evicted: %+v", gi)
	}

	// The evicted graph's rows must be gone: not-ready, not a stale serve
	// from the dead generation.
	if _, err := r.DistSWR("g1", 0); !errors.Is(err, ErrGraphNotReady) {
		t.Fatalf("query on evicted graph = %v, want ErrGraphNotReady", err)
	}
	waitReady(t, r, "g1") // the failed query enqueued the rebuild
	res, err := r.DistSWR("g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || res.Version != 2 || res.Dist[1] != 2 {
		t.Fatalf("post-rebuild answer = %+v, want fresh v2", res)
	}
}

// TestDistSWREvictRebuildHammer extends the reload hammer across the
// eviction lifecycle (run with -race): two graphs under a one-engine
// budget ping-pong evict/rebuild while workers hammer both through the
// SWR surface. Invariants: the only acceptable failure is
// ErrGraphNotReady (the eviction window), and no served row ever mixes
// generations — its payload must match the version it claims.
func TestDistSWREvictRebuildHammer(t *testing.T) {
	var probeBuilds atomic.Int64
	probe, err := versionedSource(&probeBuilds, 0)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MemoryBytes() + probe.MemoryBytes()/2

	r := NewRegistry(RegistryConfig{HotPairCache: 64, MemoryBudget: budget})
	defer r.Close()
	var builds1, builds2 atomic.Int64
	if err := r.Add("g1", versionedSource(&builds1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("g2", versionedSource(&builds2, 0)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g1")
	waitReady(t, r, "g2")

	var (
		stop      atomic.Bool
		mixed     atomic.Int64
		served    atomic.Int64
		hardFails atomic.Int64
		notReady  atomic.Int64
	)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "g1"
			if w%2 == 1 {
				name = "g2"
			}
			for !stop.Load() {
				res, err := r.DistSWR(name, 0)
				if err != nil {
					if errors.Is(err, ErrGraphNotReady) {
						notReady.Add(1) // eviction window; the query enqueued the rebuild
					} else {
						hardFails.Add(1)
					}
					continue
				}
				served.Add(1)
				if res.Dist[1] != float64(res.Version) {
					mixed.Add(1)
				}
			}
		}(w)
	}

	// Run until the evict→rebuild cycle has churned several generations on
	// both graphs (each rebuild is one build-counter bump past the first).
	deadline := time.Now().Add(30 * time.Second)
	for builds1.Load() < 4 || builds2.Load() < 4 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("evict/rebuild churn stalled: builds g1=%d g2=%d", builds1.Load(), builds2.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if f := hardFails.Load(); f != 0 {
		t.Errorf("%d hard failures (want 0; only ErrGraphNotReady is acceptable mid-eviction)", f)
	}
	if m := mixed.Load(); m != 0 {
		t.Errorf("%d responses mixed generations (want 0)", m)
	}
	if served.Load() == 0 {
		t.Fatal("hammer served nothing")
	}
	if r.Stats().Evictions == 0 {
		t.Error("no evictions happened; the hammer did not exercise the evict path")
	}
	t.Logf("served=%d notReady=%d evictions=%d builds=(%d,%d)",
		served.Load(), notReady.Load(), r.Stats().Evictions, builds1.Load(), builds2.Load())
}

// gatedBackend blocks Dist until release is closed, announcing on entered
// that a computation is in flight.
type gatedBackend struct {
	Backend
	entered chan struct{}
	release chan struct{}
}

func (b gatedBackend) Dist(source int32) ([]float64, error) {
	close(b.entered)
	<-b.release
	return b.Backend.Dist(source)
}

// TestDistSWRFillAfterRemoveDropped pins the handle-checked fill: a miss
// whose computation is still running when its graph is removed must not
// cache its row after Remove's purge. Otherwise a re-registration under
// the same name — whose version counter restarts at 1 — would serve the
// removed generation's row as a fresh v1 hit.
func TestDistSWRFillAfterRemoveDropped(t *testing.T) {
	r := NewRegistry(RegistryConfig{HotPairCache: 64})
	defer r.Close()
	var builds1, builds2 atomic.Int64
	old, err := versionedSource(&builds1, 0)(context.Background()) // dist[1] = 1
	if err != nil {
		t.Fatal(err)
	}
	gated := gatedBackend{Backend: old, entered: make(chan struct{}), release: make(chan struct{})}
	if err := r.AddReady("g", gated); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.DistSWR("g", 0) // miss: computes on the old generation
		done <- err
	}()
	<-gated.entered
	if err := r.Remove("g"); err != nil {
		t.Fatal(err)
	}
	fresh, err := versionedSource(&builds2, 100)(context.Background()) // dist[1] = 101
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddReady("g", fresh); err != nil {
		t.Fatal(err)
	}
	close(gated.release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight miss: %v", err)
	}

	res, err := r.DistSWR("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || res.Version != 1 || res.Dist[1] != 101 {
		t.Fatalf("answer after re-add = %+v, want fresh v1 of the new generation (dist[1]=101)", res)
	}
}

// TestDistSWRDisabledFallsBack: without a hot-pair cache DistSWR is
// exactly Registry.Dist plus a version tag — never stale.
func TestDistSWRDisabledFallsBack(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	defer r.Close()
	var builds atomic.Int64
	if err := r.Add("g", versionedSource(&builds, 0)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "g")
	res, err := r.DistSWR("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || res.Version != 1 || res.Dist[1] != 1 {
		t.Fatalf("fallback answer = %+v", res)
	}
	if _, err := r.DistSWR("missing", 0); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
}
