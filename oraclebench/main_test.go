package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// reloadStretch scales the tiny serve-reload run's window and reload
// interval, so that its builds still publish under a slow build mode.
var reloadStretch = 1

// tiny shrinks a workload to a small graph and one-second phases.
func tiny(t *testing.T, workload string, trace bool) config {
	cfg := workloads[workload]
	cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace = workload, 1, 1, trace
	cfg.WorkDir, cfg.Root = t.TempDir(), "."
	if cfg.Family == "gnm" {
		cfg.N, cfg.M = 300, 1200
	} else {
		cfg.N, cfg.HotCache = 400, 64
		cfg.Warmup = 200 * time.Millisecond
	}
	if cfg.ReloadEvery > 0 {
		cfg.Seconds *= float64(reloadStretch)
		cfg.ReloadEvery = time.Duration(reloadStretch) * 400 * time.Millisecond
	}
	return cfg
}

// printed runs cfg and returns its text report, split into lines.
func printed(t *testing.T, cfg config) (*report, []string) {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, strings.Split(strings.TrimSpace(buf.String()), "\n")
}

// hasMetric reports whether a "<kind> <name> <value> <unit>" line exists
// with the unit BENCHMARK.json gives (any unit for metrics it omits).
func hasMetric(lines []string, units map[string]string, kind, name string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == kind && f[1] == name && f[3] != "" {
			return units[name] == "" || units[name] == f[3]
		}
	}
	return false
}

type specMetric struct{ Name, Unit string }

// spec reads the repository's BENCHMARK.json.
func spec(t *testing.T) (e2e, layer []specMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s.EndToEnd, s.PerLayer
}

func specUnits(t *testing.T) map[string]string {
	e2e, layer := spec(t)
	units := map[string]string{}
	for _, m := range append(e2e, layer...) {
		units[m.Name] = m.Unit
	}
	return units
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	e2e, layer := spec(t)
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(xs []string) []string { return slices.Sorted(slices.Values(xs)) }
	if got, want := names(e2e), sorted(gatedE2E); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the code reports %v", got, want)
	}
	if got, want := names(layer), sorted(layerMetrics); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer = %v, the code reports %v", got, want)
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, wl := range []string{"build-gnm", "serve-zipf", "serve-reload"} {
		t.Run(wl, func(t *testing.T) {
			units := specUnits(t)
			rep, lines := printed(t, tiny(t, wl, true))
			if len(rep.problems) > 0 {
				t.Fatalf("problems: %q", rep.problems)
			}
			e2e := append(slices.Clone(gatedE2E), "restart_s", "lat_p50_ms", "lat_p99_ms", "exact_p50_ms", "capacity_qps", "stale_frac", "failed_frac")
			if wl == "serve-reload" {
				e2e = append(e2e, "reload_publish_s")
			}
			for _, name := range e2e {
				if !hasMetric(lines, units, "e2e", name) {
					t.Errorf("end-to-end metric %s not printed with a unit", name)
				}
			}
			for _, name := range layerMetrics {
				if !hasMetric(lines, units, "layer", name) {
					t.Errorf("per-layer metric %s not printed with a unit", name)
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(layerMetrics) {
				t.Errorf("traced result = %+v", res)
			}
		})
	}
}

func TestUntracedResultHoldsTheGatedMetrics(t *testing.T) {
	rep, lines := printed(t, tiny(t, "serve-zipf", false))
	if len(rep.problems) > 0 {
		t.Fatalf("problems: %q", rep.problems)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, name := range gatedE2E {
		if m, ok := res.Metrics[name]; !ok || m.Unit == "" || m.Value == 0 {
			t.Errorf("metric %s = %+v, present %t", name, m, ok)
		}
	}
	if len(res.Metrics) != len(gatedE2E) || !res.Correct {
		t.Errorf("result = %+v", res)
	}
}

func TestReloadPreconditionTrips(t *testing.T) {
	cfg := tiny(t, "serve-reload", false)
	// Longer than the run: the first reload would be due after it ends.
	cfg.ReloadEvery = time.Duration(4 * cfg.Seconds * float64(time.Second))
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tripped := false
	for _, p := range rep.problems {
		tripped = tripped || strings.Contains(p, "precondition: serve-reload")
	}
	if !tripped {
		t.Fatalf("serve-reload without reloads passed; problems: %q", rep.problems)
	}
}
