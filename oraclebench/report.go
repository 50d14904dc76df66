package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gatedE2E lists the end-to-end metrics every workload reports and
// BENCHMARK.json bounds. The other end-to-end metrics are printed in the
// text report only: the reload publish lag and the stale and failed
// fractions are zero or undefined on some workloads, and the raw latencies,
// capacity and restart_s follow the shared host's speed, which drifts
// 1.5-fold within minutes; their ratios to the yardstick do not (see
// README.md).
var gatedE2E = []string{
	"setup_s", "peak_rss_mb", "lat_p50_vs_exact", "slo_attain", "capacity_vs_exact", "stretch_max",
}

// layerMetrics lists every per-layer metric a traced run reports, on every
// workload; a layer that does no work on a workload reports a zero count.
var layerMetrics = []string{
	"graphio.decode_ms",
	"hopset.build_ms", "hopset.scale_ms_p50", "hopset.scale_ms_max",
	"hopset.edges", "hopset.scales", "hopset.phases", "hopset.clusters_sum", "hopset.phase_le64_frac",
	"pram.work", "pram.depth",
	"par.build_speedup",
	"adj.build_ms",
	"go.build_alloc_mb", "go.build_gc_cycles",
	"oracle.snapshot_bytes", "oracle.snapshot_save_ms", "oracle.snapshot_load_ms",
	"core.cold_dist_ms_p50",
	"relax.arcs_per_query", "relax.ns_per_arc", "relax.dense_round_frac",
	"exact.dijkstra_ms_p50", "core.cold_over_dijkstra",
	"engine.dist_hit_us_p50", "engine.lru_hit_frac",
	"registry.acquire_us_p50", "registry.dist_swr_us_p50",
	"registry.versions_published", "registry.draining_max",
	"hotcache.hit_frac", "hotcache.evictions", "hotcache.stale_hits", "hotcache.revalidations",
	"http.handler_us_p50", "http.codec_us", "net.loopback_us",
	"audit.samples", "audit.violations", "audit.pending_max",
	"loadgen.lag_ms_p99", "loadgen.sent", "loadgen.completed",
	"trace.overhead_frac",
}

type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report accumulates one run's metrics, notes and failures.
type report struct {
	workload string
	seed     int64
	trace    bool

	e2e   []metric
	layer []metric
	notes []string

	attempted, failed int64
	// problems are wrong answers and failed preconditions; any problem
	// makes the run incorrect and the process exit non-zero.
	problems []string
}

func (r *report) addE2E(name, unit string, v float64) { r.e2e = append(r.e2e, metric{name, unit, v}) }
func (r *report) addLayer(name, unit string, v float64) {
	r.layer = append(r.layer, metric{name, unit, v})
}
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// answer counts one checked answer; a wrong or failed one is a problem
// (the first few are described, all are counted).
func (r *report) answer(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= 5 {
		r.problem(format, args...)
	}
}

// timing adds a distribution line for a timing: its median, the highest
// percentile with at least ten samples beyond it, and the sample count.
func (r *report) timing(name, unit string, xs []float64) {
	r.note("dist %s %s", name, summarize(xs, unit))
}

func summarize(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("median=%.4g %s", quantile(xs, 0.5), unit)
	if p, ok := tailPercentile(len(xs)); ok {
		s += fmt.Sprintf(" p%s=%.4g %s", strconv.FormatFloat(p*100, 'f', -1, 64), quantile(xs, p), unit)
	} else {
		s += " tail=n/a"
	}
	return s + fmt.Sprintf(" n=%d", len(xs))
}

// tailPercentile is the highest of the usual reporting percentiles with at
// least ten samples beyond it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// fingerprint describes the host and the code under test, so that every
// report can be compared only with reports from the same setting.
func fingerprint(root string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s src_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), commit, sourceDigest(root))
}

// sourceDigest hashes the module's Go sources and go.mod files, standing in
// for the commit id when the checkout is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable report and, as the last line, the JSON
// result: the gated end-to-end metrics of an untraced run, or every
// per-layer metric of a traced one.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "# oraclebench workload=%s seed=%d trace=%t\n", r.workload, r.seed, r.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.e2e {
		fmt.Fprintf(w, "e2e %s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.layer {
		fmt.Fprintf(w, "layer %s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	pick := func(ms []metric, names []string) {
		for _, name := range names {
			for _, m := range ms {
				if m.Name == name {
					res.Metrics[name] = jsonMetric{m.Value, m.Unit}
				}
			}
		}
	}
	if r.trace {
		pick(r.layer, layerMetrics)
	} else {
		pick(r.e2e, gatedE2E)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
