package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	orion "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// The serve-open traffic has two phases, drawn by one seeded generator.
// The reference phase offers serveRefRate requests per second for three
// quarters of the measured seconds (at least serveMinRequests requests);
// it gives the latency percentiles below the knee. The saturation phase
// offers serveBatches batches of serveBatchRequests requests at
// serveBurstRate, far above the daemon's capacity, each drained before
// the next: a batch's completion rate is the rate above which the
// backlog grows.
const (
	serveRefRate       = 24.0
	serveMinRequests   = 100
	serveBurstRate     = 720.0
	serveBatches       = 3
	serveBatchRequests = 300
	// serveSetups is how many times set-up is repeated for its median.
	serveSetups = 3
	// serveFreshGrid and serveFreshIters are every fresh upload's launch:
	// small, so a fresh tune costs tens of ms, compile first. Light
	// requests at a high rate give the latency percentiles many samples
	// per second at the same utilization.
	serveFreshGrid  = 64
	serveFreshIters = 4
	// serveTraceEvery makes every n-th fresh upload of a traced run a
	// ?trace=1 request, whose response carries its span tree.
	serveTraceEvery = 4
	// serveScrapeEvery is how often a traced run samples /metrics for the
	// pool's queue depth.
	serveScrapeEvery = 250 * time.Millisecond
)

// serveDevices are the daemon's device names, in the order uploads
// alternate between them.
var serveDevices = []string{"gtx680", "c2075"}

// serveHot are the kernels whose tune (both devices) and sweep (first
// device only) requests repeat; they are warmed during set-up, so
// repeats are store hits.
var serveHot = []string{"bfs", "srad", "hotspot", "dxtc"}

// serveFreshKernel is uploaded under a new name for every fresh tune and
// compile, alternating devices within each kind, so every phase carries
// the same upload work. hotspot has calls and a shared tile, so uploads
// run interproc and shared spilling. Cycling seven kernels instead put
// the reference p90 at a boundary between their cost clusters, and it
// spread 0.3 (IQR/median) over seeds.
const serveFreshKernel = "hotspot"

// request is one scheduled operation.
type request struct {
	due   time.Duration // offset from the traffic start
	kind  string        // hot, sweep, fresh or compile
	dev   string        // the device of a fresh upload
	path  string
	body  string
	group string // requests with one group must get byte-identical bodies
}

// outcome is one request's measured result.
type outcome struct {
	req    *request
	late   time.Duration // generator lateness: sent minus due
	lat    time.Duration // completion minus due
	status int
	sum    [32]byte
	body   []byte // kept for fresh tunes, which may be checked in-process
	err    error
}

// daemon is an in-process `orion serve` on loopback.
type daemon struct {
	dir    string
	store  *store.Store
	srv    *serve.Server
	http   *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

func startDaemon(nproc int) (*daemon, error) {
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "serve-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// The queue holds a whole batch, so overload shows as latency rather
	// than 429s.
	srv := serve.New(serve.Config{Store: st, Workers: nproc, Queue: 4 * serveBatchRequests})
	d := &daemon{
		dir: dir, store: st, srv: srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			// A request still unanswered after this long fails, so a hung
			// daemon ends the run instead of stalling it.
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     nproc,
				MaxIdleConnsPerHost: nproc,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln)
	}()
	return d, nil
}

// stop shuts the listener and the worker pool down, waits for both, and
// removes the store.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx)
	<-d.done
	d.srv.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// do sends one request and reads the whole response.
func (d *daemon) do(method, path, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// daemonMetrics is the part of /metrics the benchmark reads.
type daemonMetrics struct {
	Metrics struct {
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			P50 float64 `json:"p50"`
		} `json:"histograms"`
	} `json:"metrics"`
	Pool struct {
		Queued int `json:"queued"`
	} `json:"pool"`
	Flight struct {
		Coalesced uint64 `json:"coalesced"`
	} `json:"flight"`
}

func (d *daemon) metrics() (*daemonMetrics, error) {
	status, data, err := d.do("GET", "/metrics", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	var m daemonMetrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

// warm tunes every hot kernel on both devices and sweeps it on the
// first, and returns each response body's digest by path.
func (d *daemon) warm(hot []*orion.Kernel) (map[string][32]byte, error) {
	refs := map[string][32]byte{}
	for _, k := range hot {
		for _, path := range []string{hotTunePath(k, serveDevices[0]), hotTunePath(k, serveDevices[1]), hotSweepPath(k, serveDevices[0])} {
			status, data, err := d.do("POST", path, "")
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("warming %s: status %d, %v: %s", path, status, err, data)
			}
			refs[path] = sha256.Sum256(data)
		}
	}
	return refs, nil
}

func hotTunePath(k *orion.Kernel, dev string) string {
	return fmt.Sprintf("/v1/tune?kernel=%s&device=%s&grid=%d&iters=%d", k.Name, dev, suiteGrid(k), k.Iterations)
}

func hotSweepPath(k *orion.Kernel, dev string) string {
	return fmt.Sprintf("/v1/sweep?kernel=%s&device=%s&grid=%d", k.Name, dev, suiteGrid(k))
}

// schedule draws the whole seeded request sequence, one phase per rate
// and count. A phase's n arrivals are uniform order statistics over
// n/rate seconds, which is a Poisson process conditioned on its count, so
// every phase offers exactly its rate. Its kinds are an exact 60/30/5/5
// split of hot tunes, fresh uploads, fresh compiles and hot sweeps, in
// seeded order.
func schedule(seed int64, rates []float64, counts []int, trace bool) ([][]*request, error) {
	hot, err := benchmarks(serveHot)
	if err != nil {
		return nil, err
	}
	freshK, err := orion.Benchmark(serveFreshKernel)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	fresh := 0                  // uploads so far, for unique names
	perKind := map[string]int{} // uploads so far of each kind
	var phases [][]*request
	for pi, rate := range rates {
		n := counts[pi]
		dues := make([]float64, n)
		for i := range dues {
			dues[i] = rng.Float64() * float64(n) / rate
		}
		sort.Float64s(dues)
		kinds := make([]string, n)
		for i := range kinds {
			switch {
			case i < n*60/100:
				kinds[i] = "hot"
			case i < n*90/100:
				kinds[i] = "fresh"
			case i < n*95/100:
				kinds[i] = "compile"
			default:
				kinds[i] = "sweep"
			}
		}
		rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

		phase := make([]*request, n)
		for i := range phase {
			r := &request{due: time.Duration(dues[i] * float64(time.Second)), kind: kinds[i]}
			switch r.kind {
			case "hot":
				r.path = hotTunePath(hot[rng.Intn(len(hot))], serveDevices[rng.Intn(len(serveDevices))])
				r.group = r.path
			case "sweep":
				r.path = hotSweepPath(hot[rng.Intn(len(hot))], serveDevices[0])
				r.group = r.path
			default:
				nth := perKind[r.kind]
				r.dev = serveDevices[nth%len(serveDevices)]
				r.body = renameKernel(freshK.Source, fmt.Sprintf("%s_s%d_f%d", freshK.Name, seed, fresh))
				r.path = fmt.Sprintf("/v1/tune?device=%s&grid=%d&iters=%d", r.dev, serveFreshGrid, serveFreshIters)
				if r.kind == "compile" {
					r.path = "/v1/compile?device=" + r.dev
				} else if trace && nth%serveTraceEvery == 0 {
					r.path += "&trace=1"
				}
				perKind[r.kind]++
				fresh++
			}
			phase[i] = r
		}
		phases = append(phases, phase)
	}
	return phases, nil
}

func benchmarks(names []string) ([]*orion.Kernel, error) {
	ks := make([]*orion.Kernel, len(names))
	for i, name := range names {
		k, err := orion.Benchmark(name)
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	return ks, nil
}

// offer sends one phase's requests on their schedule, each from its own
// goroutine, and returns once all have completed. spans, when non-nil,
// records a client span per request.
func (d *daemon) offer(phase []*request, spans *orion.Collector) []*outcome {
	out := make([]*outcome, len(phase))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range phase {
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, r *request) {
			defer wg.Done()
			o := &outcome{req: r, late: time.Since(start) - r.due}
			sp := spans.StartSpan("bench.request")
			var data []byte
			o.status, data, o.err = d.do("POST", r.path, r.body)
			sp.End()
			o.lat = time.Since(start) - r.due
			o.sum = sha256.Sum256(data)
			if r.kind == "fresh" {
				o.body = data
			}
			out[i] = o
		}(i, r)
	}
	wg.Wait()
	return out
}

// phaseStats summarizes one phase: the latency percentiles (the median
// over hot reads apart, since the store serves them beside the uploads'
// compile and tune work), the generator's lateness, and the makespan from
// the phase's start to its last completion.
type phaseStats struct {
	p50Hot, p90, lateP90 float64 // ms
	makespan             time.Duration
}

func summarize(outs []*outcome) phaseStats {
	var lat, hot, late []float64
	var s phaseStats
	for _, o := range outs {
		lat = append(lat, ms(o.lat))
		late = append(late, ms(o.late))
		if o.req.kind == "hot" {
			hot = append(hot, ms(o.lat))
		}
		s.makespan = max(s.makespan, o.req.due+o.lat)
	}
	s.p50Hot, s.p90, s.lateP90 = median(hot), quantile(lat, 0.9), quantile(late, 0.9)
	return s
}

func runServe(e *env) (*result, error) {
	res := newResult()
	rates := []float64{serveRefRate}
	counts := []int{max(serveMinRequests, int(serveRefRate*e.seconds.Seconds()*3/4))}
	batches := serveBatches
	if e.trace {
		// A traced run also offers untraced batches of their own uploads
		// first, as the reference for the tracing overhead.
		batches *= 2
	}
	for i := 0; i < batches; i++ {
		rates = append(rates, serveBurstRate)
		counts = append(counts, serveBatchRequests)
	}
	phases, err := schedule(e.seed, rates, counts, e.trace)
	if err != nil {
		return nil, err
	}
	// Set-up starts a daemon on an empty store and warms the hot set,
	// serveSetups times with the memo caches reset in between; set-up
	// time is the time before the first daemon plus the median warm-up.
	// The last daemon serves the traffic. Every warm-up tunes and sweeps
	// every hot kernel, whether or not the seed draws it, so set-up does
	// the same work on every seed; the last warm-up's bodies are the
	// references every repeat must match byte for byte.
	hot, err := benchmarks(serveHot)
	if err != nil {
		return nil, err
	}
	boot := time.Since(e.start)
	var d *daemon
	var refs map[string][32]byte
	var warmups []float64
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		core.ResetRealizeCache()
		core.ResetRunCache()
		t0 := time.Now()
		if d, err = startDaemon(e.nproc); err != nil {
			return nil, err
		}
		if refs, err = d.warm(hot); err != nil {
			d.stop()
			return nil, err
		}
		warmups = append(warmups, time.Since(t0).Seconds())
	}
	defer d.stop()
	heap0 := liveHeapMiB()
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	st0 := d.store.Stats()
	setup := boot.Seconds() + median(warmups)
	res.prov["rates_rps"] = rates
	res.prov["requests"] = counts

	var untraced []float64
	if e.trace {
		for _, batch := range phases[1+serveBatches:] {
			outs := d.offer(batch, nil)
			untraced = append(untraced, summarize(outs).makespan.Seconds())
			checkOutcomes(outs, refs, res)
		}
		phases = phases[:1+serveBatches]
	}

	var spans *orion.Collector
	var queuedMax int
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if e.trace {
		spans = orion.NewCollector()
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			tick := time.NewTicker(serveScrapeEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopScrape:
					return
				case <-tick.C:
					if m, err := d.metrics(); err == nil && m.Pool.Queued > queuedMax {
						queuedMax = m.Pool.Queued
					}
				}
			}
		}()
	}

	before := snapCounters()
	t0 := time.Now()
	var all []*outcome
	var ref phaseStats
	var makespans []float64
	for i, phase := range phases {
		outs := d.offer(phase, spans)
		all = append(all, outs...)
		s := summarize(outs)
		if i == 0 {
			ref = s
			fmt.Printf("reference %g/s: %d requests, hot-read p50 %.1f ms, p90 %.1f ms, generator late p90 %.1f ms\n",
				rates[i], len(outs), s.p50Hot, s.p90, s.lateP90)
			continue
		}
		makespans = append(makespans, s.makespan.Seconds())
		fmt.Printf("batch %d at %g/s: %d requests served in %.3f s\n", i, rates[i], len(outs), s.makespan.Seconds())
	}
	traffic := time.Since(t0)
	delta := snapCounters().since(before)
	close(stopScrape)
	scrapeWG.Wait()
	heap := liveHeapMiB()

	checkOutcomes(all, refs, res)
	if err := checkInProcess(e.seed, all, res); err != nil {
		return nil, err
	}

	wall := median(makespans)
	res.e2e = map[string]float64{
		"setup_s":       setup,
		"wall_s":        wall,
		"p50_ms":        ref.p50Hot,
		"max_rate_rps":  serveBatchRequests / wall,
		"success_pct":   successPct(res),
		"live_heap_mib": heap,
	}
	if !e.trace {
		return res, nil
	}
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	st1 := d.store.Stats()
	selfMS := map[string]float64{}
	if err := collectorSelfTimes(spans, selfMS); err != nil {
		return nil, err
	}
	for _, o := range all {
		if !strings.Contains(o.req.path, "trace=1") || o.status != http.StatusOK {
			continue
		}
		var envelope struct {
			Trace json.RawMessage `json:"trace"`
		}
		if err := json.Unmarshal(o.body, &envelope); err != nil {
			return nil, fmt.Errorf("traced response: %w", err)
		}
		if err := addSelfTimes(envelope.Trace, selfMS); err != nil {
			return nil, err
		}
	}
	for _, l := range traceLayers {
		res.layer[l+".self_ms"] = selfMS[l]
	}
	setProcessMetrics(delta, res.layer)
	res.layer["sim.minstr_per_s"] = res.layer["sim.instructions"] / 1e6 / traffic.Seconds()
	c := func(name string) float64 { return float64(m1.Metrics.Counters[name] - m0.Metrics.Counters[name]) }
	res.layer["serve.store_hits"] = c("serve.store_hits")
	res.layer["serve.store_misses"] = c("serve.store_misses")
	res.layer["serve.store_hit_ratio"] = ratio(c("serve.store_hits"), c("serve.store_hits")+c("serve.store_misses"))
	res.layer["serve.fat_reused"] = c("serve.fat_reused")
	res.layer["serve.fat_stale"] = c("serve.fat_stale")
	res.layer["serve.busy"] = c("serve.busy")
	res.layer["serve.coalesced"] = float64(m1.Flight.Coalesced - m0.Flight.Coalesced)
	res.layer["serve.server_tune_p50_ms"] = m1.Metrics.Histograms["serve.tune_ms"].P50
	res.layer["pool.queued_max"] = float64(queuedMax)
	res.layer["client.late_ms"] = ref.lateP90
	res.layer["client.p90_ms"] = ref.p90
	res.layer["store.hits"] = float64(st1.Hits - st0.Hits)
	res.layer["store.misses"] = float64(st1.Misses - st0.Misses)
	res.layer["store.puts"] = float64(st1.Puts - st0.Puts)
	res.layer["store.corrupt"] = float64(st1.Corrupt - st0.Corrupt)
	res.layer["retained_heap_mib"] = heap - heap0
	res.layer["trace.overhead"] = wall / median(untraced)
	return res, nil
}

// checkOutcomes counts every request as an operation (failed unless it
// returned 200) and checks every repeated request's body against the
// reference taken during set-up.
func checkOutcomes(outs []*outcome, refs map[string][32]byte, res *result) {
	for _, o := range outs {
		r := o.req
		res.attempted++
		if o.err != nil || o.status != http.StatusOK {
			res.fail("%s %s: status %d, %v", r.kind, r.path, o.status, o.err)
			continue
		}
		if r.group != "" && o.sum != refs[r.group] {
			res.fail("%s %s: body differs from the first response", r.kind, r.path)
		}
	}
}

// checkInProcess re-tunes a seeded sample of fresh uploads in process
// and requires the daemon's body to equal the canonical report bytes.
func checkInProcess(seed int64, all []*outcome, res *result) error {
	var fresh []*outcome
	for _, o := range all {
		if o.req.kind == "fresh" && !strings.Contains(o.req.path, "trace=1") && o.status == http.StatusOK {
			fresh = append(fresh, o)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2 && len(fresh) > 0; i++ {
		o := fresh[rng.Intn(len(fresh))]
		want, err := inProcessTune(o.req)
		if err != nil {
			return err
		}
		res.check(bytes.Equal(o.body, want), "fresh tune %s: daemon body differs from the in-process report", o.req.path)
	}
	return nil
}

// inProcessTune runs the daemon's tune of a fresh upload through
// Realizer.Tune directly and renders the canonical report.
func inProcessTune(r *request) ([]byte, error) {
	prog, err := orion.ParseKernel(r.body)
	if err != nil {
		return nil, err
	}
	dev := orion.GTX680()
	if r.dev == "c2075" {
		dev = orion.TeslaC2075()
	}
	rz := orion.NewRealizer(dev, orion.SmallCache)
	lc := orion.Launch{GridWarps: serveFreshGrid, Iterations: serveFreshIters}
	canTune := rz.CanTune(prog, lc)
	rep, err := rz.Tune(prog, lc)
	if err != nil {
		return nil, err
	}
	p := serve.Params{
		Kernel: prog.Name, Device: dev.Name, Cache: orion.SmallCache.String(),
		Backend: orion.CurrentSimBackend(), Grid: lc.GridWarps, Iters: lc.Iterations,
		Lint: orion.LintStrict.String(), Verify: true,
	}
	return serve.EncodeReport(serve.BuildReport(p, prog, dev, canTune, rep)), nil
}
