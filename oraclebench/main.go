// Command oraclebench is the repository's benchmark: one seeded program for
// the distance oracle's three workloads — a cold hopset build on a G(n, m)
// graph and two Zipf serving mixes over HTTP, one of them beside hot
// reloads. It generates its inputs from -seed, checks every
// answer, prints every end-to-end metric with its unit, and ends with one
// JSON line. With -trace 1 it instead times calls into each layer from
// outside and prints the per-layer metrics. See README.md.
//
//	bash oraclebench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	epsilon   = 0.25                  // stretch target of every engine
	sloLimit  = 50 * time.Millisecond // latency limit of slo_attain
	zipfS     = 1.2                   // Zipf exponent of skewed sources
	graphName = "g"                   // the served graph's registry name

	setupReps   = 3    // set-ups per run; the median is reported
	restartReps = 15   // snapshot restarts per run; the median is reported
	coldSources = 64   // build-gnm: seeded sources of the cold Dist loop
	engineLRU   = 64   // engine row-cache capacity of every serving stack
	auditRate   = 0.01 // shadow-audited share of served answers
	probeReplay = 200  // traced run: sampled queries replayed top-down
	probeCold   = 16   // traced run: cold sources replayed on the miss path
)

// config shapes one run. main takes it from the workload table; the
// benchmark's test shrinks it.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64 // measured window
	Trace    bool
	WorkDir  string
	Root     string // module root, fingerprinted in the report

	Family string // "gnm" (build-gnm) or "grid" (serve-*)
	N, M   int
	Paths  bool // path reporting

	// LatShare is the share of Seconds in the latency phase, where one
	// client sends back to back; the capacity phase, with nproc clients,
	// takes the rest.
	LatShare float64

	// serve-*: traffic and hot-pair cache.
	Warmup      time.Duration // untimed nproc-client warm-up before the latency phase
	ReloadEvery time.Duration // 0 = no reloads
	HotCache    int
}

// workloads are the benchmark's named workloads; README.md gives the
// reason for each.
var workloads = map[string]config{
	"build-gnm": {
		Family: "gnm", N: 4096, M: 16384, LatShare: 0.4,
		HotCache: 512, // the traced replay's serving stack
	},
	"serve-zipf": {
		Family: "grid", N: 2048, Paths: true,
		LatShare: 0.3, Warmup: 3 * time.Second,
		HotCache: 512,
	},
	"serve-reload": {
		Family: "grid", N: 1024, Paths: true,
		LatShare: 0.6, Warmup: 2 * time.Second,
		ReloadEvery: 4 * time.Second,
		HotCache:    512,
	},
}

func main() {
	var (
		workload = flag.String("workload", "", "build-gnm | serve-zipf | serve-reload")
		seed     = flag.Int64("seed", 1, "workload seed: graph, sources and arrivals")
		seconds  = flag.Float64("seconds", 10, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
		workdir  = flag.String("workdir", ".bench_build/oraclebench-work", "directory for generated graphs and trace files")
		root     = flag.String("root", ".", "module root, fingerprinted in the report")
	)
	flag.Parse()
	cfg, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "oraclebench: need -workload (build-gnm|serve-zipf|serve-reload), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace = *workload, *seed, *seconds, *trace == 1
	cfg.WorkDir, cfg.Root = *workdir, *root
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oraclebench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "oraclebench: %v\n", err)
		os.Exit(1)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// run executes one workload in a fresh scratch directory under cfg.WorkDir.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{workload: cfg.Workload, seed: cfg.Seed, trace: cfg.Trace}
	rep.note("%s", fingerprint(cfg.Root))
	rep.note("config family=%s n=%d m=%d paths=%t eps=%g setup_reps=%d restart_reps=%d seconds=%g clients=%d lat_share=%g warmup=%s hot_cache=%d engine_lru=%d audit=%g reload_every=%s",
		cfg.Family, cfg.N, cfg.M, cfg.Paths, epsilon, setupReps, restartReps, cfg.Seconds, clients(),
		cfg.LatShare, cfg.Warmup, cfg.HotCache, engineLRU, auditRate, cfg.ReloadEvery)

	tr := newTracer(cfg.Trace)
	root := tr.begin("workload "+cfg.Workload, -1)
	switch cfg.Family {
	case "gnm":
		err = runBuild(cfg, dir, rep, tr, root)
	default:
		err = runServe(cfg, dir, rep, tr, root)
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.addE2E("peak_rss_mb", "MB", rss)
	rep.addE2E("failed_frac", "fraction", frac(rep.failed, rep.attempted))
	if cfg.Trace {
		path := filepath.Join(cfg.WorkDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.note("trace spans=%d file=%s", len(tr.spans), path)
	}
	return rep, nil
}

// clients is the load generator's client count: one per CPU.
func clients() int { return runtime.NumCPU() }
