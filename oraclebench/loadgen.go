package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type query struct{ s, t int32 }

// picker draws seeded queries: sources Zipf(1.2)-skewed over a seeded
// permutation of the vertices, targets uniform.
type picker struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newPicker(rng *rand.Rand, n int) *picker {
	return &picker{rng: rng, n: n, perm: rng.Perm(n)}
}

// stream returns k queries whose source ranks occur in exact Zipf
// proportions (rounded with a seeded dither), in seeded order. Drawing the
// ranks independently instead lets the hot-cache miss share of a phase,
// and with it the capacity, vary by several percent from seed to seed.
func (p *picker) stream(k int) []query {
	w := make([]float64, p.n)
	var sum float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
		sum += w[r]
	}
	qs := make([]query, 0, k)
	carry := p.rng.Float64()
	for r := range w {
		carry += float64(k) * w[r] / sum
		for ; carry >= 1 && len(qs) < k; carry-- {
			qs = append(qs, query{s: int32(p.perm[r])})
		}
	}
	for len(qs) < k {
		qs = append(qs, query{s: int32(p.perm[0])})
	}
	p.rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for i := range qs {
		qs[i].t = int32(p.rng.Intn(p.n))
	}
	return qs
}

// client is the load generator's HTTP client: at most nproc connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(url string) *client {
	t := &http.Transport{
		MaxConnsPerHost:     clients(),
		MaxIdleConnsPerHost: clients(),
		DisableCompression:  true,
	}
	return &client{base: url + "/graphs/" + graphName, hc: &http.Client{Transport: t, Timeout: time.Minute}, tr: t}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

type distResp struct {
	Dist    *float64 `json:"dist"`
	Version int64    `json:"version"`
	Stale   bool     `json:"stale"`
}

// value maps the JSON null of an unreachable target back to +Inf.
func (r distResp) value() float64 {
	if r.Dist == nil {
		return math.Inf(1)
	}
	return *r.Dist
}

func (c *client) dist(q query) (distResp, error) {
	u := c.base + "/dist?source=" + strconv.Itoa(int(q.s)) + "&target=" + strconv.Itoa(int(q.t))
	resp, err := c.hc.Get(u)
	if err != nil {
		return distResp{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return distResp{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return distResp{}, fmt.Errorf("GET %s: %s: %s", u, resp.Status, bytes.TrimSpace(body))
	}
	var r distResp
	if err := json.Unmarshal(body, &r); err != nil {
		return distResp{}, fmt.Errorf("GET %s: %w", u, err)
	}
	return r, nil
}

func (c *client) reload() error {
	resp, err := c.hc.Post(c.base+"/reload", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST reload: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// outcome is one request of a closed loop. lat runs from the send to the
// checked answer; base is the latency of the same request answered by the
// yardstick right beside it (see interleave); lag is the gap since the
// client's previous answer.
type outcome struct {
	lat, base time.Duration
	lag       time.Duration
	stale     bool
	answered  bool  // a response was decoded
	traced    bool  // a span was recorded for it
	err       error // failed, refused or wrong
}

// checkFn validates one served answer against the reference.
type checkFn func(q query, r distResp) error

func (c *client) do(q query, check checkFn) outcome {
	r, err := c.dist(q)
	o := outcome{answered: err == nil, stale: r.Stale, err: err}
	if err == nil {
		o.err = check(q, r)
	}
	return o
}

// interleave performs one request of the workload (sys) and the same
// request answered by the yardstick (exact) right beside it, alternating
// which goes first. Whatever slows the host in that moment slows both, so
// the ratio of the two latencies is steady where each alone is not.
func interleave(i int64, sys func() outcome, exact func() error) outcome {
	var base time.Duration
	var err error
	runExact := func() {
		t := time.Now()
		err = exact()
		base = time.Since(t)
	}
	if i%2 == 1 {
		runExact()
	}
	t := time.Now()
	o := sys()
	o.lat = time.Since(t)
	if i%2 == 0 {
		runExact()
	}
	o.base = base
	if o.err == nil {
		o.err = err
	}
	return o
}

// closedLoop runs k clients back to back for d; call(i) performs the i-th
// request and times it. It returns the outcomes and the elapsed time. In
// traced runs two requests in every four get a span, one of each order of
// interleave.
func closedLoop(k int, d time.Duration, tr *tracer, parent int, reqBase int64, call func(i int64) outcome) ([]outcome, time.Duration) {
	var next atomic.Int64
	per := make([][]outcome, k)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t0 := time.Now()
				o := call(i)
				t1 := time.Now()
				o.lag = t0.Sub(prev)
				prev = t1
				if tr.on && i%4 < 2 {
					tr.add("request", parent, reqBase+i, t0, t1)
					o.traced = true
				}
				per[c] = append(per[c], o)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// capacity estimates, from an interleaved loop of k clients, the answers
// per second k clients would get from the workload alone, and its ratio to
// what they would get from the yardstick alone.
func capacity(outs []outcome, k int) (qps, vsExact float64) {
	var n int
	var sys, base time.Duration
	for _, o := range outs {
		if o.err == nil {
			n++
			sys += o.lat
			base += o.base
		}
	}
	if sys <= 0 {
		return 0, 0
	}
	return float64(k*n) / sys.Seconds(), base.Seconds() / sys.Seconds()
}

// addLoopMetrics checks every outcome of the latency phase (one client)
// and the capacity phase (nproc clients) and adds their end-to-end
// metrics. It returns the latencies of the traced and untraced requests of
// the latency phase, for trace.overhead_frac, and every client's lags.
func addLoopMetrics(rep *report, lats, caps []outcome) (traced, untraced, lag []float64) {
	var lat, base, ratio []float64
	var inSLO int64
	for _, o := range lats {
		rep.answer(o.err == nil, "latency phase: %v", o.err)
		l := ms(o.lat)
		lat = append(lat, l)
		base = append(base, ms(o.base))
		ratio = append(ratio, float64(o.lat)/float64(o.base))
		lag = append(lag, ms(o.lag))
		if o.err == nil && o.lat <= sloLimit {
			inSLO++
		}
		if o.traced {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	for _, o := range caps {
		rep.answer(o.err == nil, "capacity phase: %v", o.err)
		lag = append(lag, ms(o.lag))
	}
	qps, capVsExact := capacity(caps, clients())
	rep.timing("lat_ms", "ms", lat)
	rep.timing("exact_ms", "ms", base)
	rep.addE2E("lat_p50_ms", "ms", quantile(lat, 0.5))
	rep.addE2E("lat_p99_ms", "ms", quantile(lat, 0.99))
	rep.addE2E("exact_p50_ms", "ms", quantile(base, 0.5))
	rep.addE2E("lat_p50_vs_exact", "ratio", quantile(ratio, 0.5))
	rep.addE2E("slo_attain", "fraction", frac(inSLO, int64(len(lats))))
	rep.addE2E("capacity_qps", "req/s", qps)
	rep.addE2E("capacity_vs_exact", "ratio", capVsExact)
	return traced, untraced, lag
}
