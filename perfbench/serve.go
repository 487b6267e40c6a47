package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
)

// Op classes of the read mixes.
const (
	opGet = iota
	opNorm
	opBatch
	opQuery
)

var opNames = []string{"get", "norm", "batch", "query"}

// batchKeys is the key count of one batch lookup.
const batchKeys = 64

// queryLimit bounds a query's rows, so every response has a fixed size.
const queryLimit = 100

// Persons-corpus namespaces the queries address.
const (
	personsNS1 = "http://person1.example.org/"
	personsNS2 = "http://person2.example.org/"
)

// queryShapes rotate through the query ops: one pattern, a cross-KB join
// through sameAs clusters, and a type scan with subclass expansion.
var queryShapes = []string{
	`?p <` + personsNS1 + `has_address> ?a`,
	`?p <` + personsNS1 + `has_address> ?a . ?a <` + personsNS2 + `zipCode> ?z`,
	`?x a <` + personsNS2 + `Human>`,
}

// serveConfig describes a read workload.
type serveConfig struct {
	persons int
	rate    float64    // requests per second, open loop
	mix     [4]float64 // share of get, norm, batch, query
	fleet   bool
	limitMs float64 // p99 read latency the reference rate is meant to meet
}

// tinyLimitMs is the latency limit of a tiny run, which checks that the
// workload runs and answers correctly: its few dozen reads have no p99.
const tinyLimitMs = 1000

func serveSingle(tiny bool) workload {
	cfg := serveConfig{persons: 5000, rate: 500, mix: [4]float64{0.70, 0.10, 0.15, 0.05}, limitMs: 10}
	if tiny {
		cfg.persons, cfg.rate, cfg.limitMs = 100, 200, tinyLimitMs
	}
	return func(ctx context.Context, r *run) error { return r.runServe(ctx, cfg) }
}

func serveFleetDegraded(tiny bool) workload {
	cfg := serveConfig{persons: 1000, rate: 250, mix: [4]float64{0.75, 0.10, 0.15, 0}, fleet: true, limitMs: 20}
	if tiny {
		cfg.persons, cfg.rate, cfg.limitMs = 100, 200, tinyLimitMs
	}
	return func(ctx context.Context, r *run) error { return r.runServe(ctx, cfg) }
}

// deployment is what a read workload talks to.
type deployment struct {
	cl      *client.Client   // parisd, or the router in front of a fleet
	base    string           // its base URL
	parisds []*client.Client // live parisd processes, for LRU counters
	close   func()
	degrade func() // kills a fleet's victims as the window starts; nil for one parisd
}

// served is the published alignment the checks compare answers with.
type served struct {
	keys   []string          // assigned kb-1 keys
	expect map[string]string // kb-1 key → partner the snapshot assigns
	rows   []int             // warm-up row count of each query shape
}

// plannedOp is one request of the schedule, drawn before timing starts.
type plannedOp struct {
	class int
	keys  []int // indices into served.keys
	shape int
}

// queryTotals accumulates the stats /v1/query returns.
type queryTotals struct {
	n, hits, scanned         atomic.Int64
	planNs, execNs, clientNs atomic.Int64
}

// runServe measures a read workload: an open loop at the configured rate
// for the window against a deployment serving the corpus's alignment.
func (r *run) runServe(ctx context.Context, cfg serveConfig) error {
	d := gen.Persons(gen.PersonsConfig{N: cfg.persons, Seed: r.seed})
	c, err := prepare(filepath.Join(r.dir, "corpus"), d)
	if err != nil {
		return err
	}
	res, snap, _, err := r.pipeline(ctx, c, core.Config{}, nil, 0)
	if err != nil {
		return err
	}
	sv := &served{expect: make(map[string]string, len(snap.Instances))}
	for _, a := range snap.Instances {
		sv.keys = append(sv.keys, a.Key1)
		sv.expect[a.Key1] = a.Key2
	}
	base := heapBaseline()

	var dep *deployment
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if dep != nil {
			dep.close()
		}
		runtime.GC()
		t0 := time.Now()
		if cfg.fleet {
			dep, err = r.deployFleet(ctx, i, snap)
		} else {
			dep, err = r.deploySingle(i, res)
		}
		if err != nil {
			return err
		}
		if err := r.warmUp(ctx, dep, cfg, sv); err != nil {
			dep.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer dep.close()
	r.rep.SetupS = setups
	r.set("setup_s", median(setups), "s")

	rng := rand.New(rand.NewSource(r.seed))
	n := int(cfg.rate * r.window.Seconds())
	plan := make([]plannedOp, n)
	shapes := 0
	for i := range plan {
		p := plannedOp{class: pickClass(rng, cfg.mix)}
		k := 1
		if p.class == opBatch {
			k = batchKeys
		}
		p.keys = make([]int, k)
		for j := range p.keys {
			p.keys[j] = rng.Intn(len(sv.keys))
		}
		if p.class == opQuery {
			p.shape = shapes % len(queryShapes)
			shapes++
		}
		plan[i] = p
	}
	conns := runtime.NumCPU()
	if dep.degrade != nil {
		dep.degrade()
	}

	if r.trace {
		return r.traceServe(ctx, dep, cfg, sv, c, plan, conns)
	}
	qt := &queryTotals{}
	heap := startHeapSampler(base)
	samples := openLoop(time.Now(), cfg.rate, n, conns, func(i int) (int, bool) {
		return plan[i].class, r.op(r.read(ctx, dep, sv, plan[i], qt, false))
	})
	peak := heap.finish()

	all := r.summarizeReads(samples, cfg)
	f1, err := r.readBackF1(ctx, dep, c)
	if err != nil {
		return err
	}
	r.set("op_latency_ms", all.P50Ms, "ms")
	r.set("peak_heap_mb", peak, "MiB")
	r.set("quality_f1", f1, "ratio")
	return nil
}

func pickClass(rng *rand.Rand, mix [4]float64) int {
	x := rng.Float64()
	for c, w := range mix {
		if x < w {
			return c
		}
		x -= w
	}
	return opGet
}

// read issues one planned op and checks its answer against the published
// snapshot. With traced, the request carries a fresh X-Paris-Trace and the
// client span is recorded.
func (r *run) read(ctx context.Context, dep *deployment, sv *served, p plannedOp, qt *queryTotals, traced bool) error {
	if traced {
		ctx, _ = client.NewTrace(ctx)
	}
	t0 := time.Now()
	err := r.readOnce(ctx, dep, sv, p, qt, t0)
	if traced {
		r.clientSpan(ctx, opNames[p.class], t0, time.Now(), false)
	}
	return err
}

func (r *run) readOnce(ctx context.Context, dep *deployment, sv *served, p plannedOp, qt *queryTotals, t0 time.Time) error {
	key := sv.keys[p.keys[0]]
	want := sv.expect[key]
	switch p.class {
	case opGet:
		res, err := dep.cl.SameAs(ctx, client.SameAsQuery{KB: "1", Key: key})
		if err != nil {
			return fmt.Errorf("get %s: %w", key, err)
		}
		if len(res.Matches) == 0 || res.Matches[0].Key != want || res.Normalized {
			return fmt.Errorf("get %s: answered %+v, the snapshot assigns %s", key, res.Matches, want)
		}
	case opNorm:
		// Upper-casing misses the exact index, so the lookup resolves
		// through the folded index and the normalized LRU.
		res, err := dep.cl.SameAs(ctx, client.SameAsQuery{KB: "1", Key: strings.ToUpper(key)})
		if err != nil {
			return fmt.Errorf("norm %s: %w", key, err)
		}
		found := false
		for _, m := range res.Matches {
			found = found || m.Key == want
		}
		if !found || !res.Normalized {
			return fmt.Errorf("norm %s: answered %+v, the snapshot assigns %s", key, res.Matches, want)
		}
	case opBatch:
		keys := make([]string, len(p.keys))
		for i, k := range p.keys {
			keys[i] = sv.keys[k]
		}
		res, err := dep.cl.SameAsBatch(ctx, client.BatchSameAsQuery{KB: "1", Keys: keys})
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		if res.Found != len(keys) || len(res.Results) != len(keys) {
			return fmt.Errorf("batch: found %d of %d assigned keys", res.Found, len(keys))
		}
		for i, k := range keys {
			if m := res.Results[i].Matches; len(m) == 0 || m[0].Key != sv.expect[k] {
				return fmt.Errorf("batch key %s: answered %+v, the snapshot assigns %s", k, m, sv.expect[k])
			}
		}
	case opQuery:
		res, err := dep.cl.Query(ctx, client.QueryRequest{Query: queryShapes[p.shape], Limit: queryLimit})
		if err != nil {
			return fmt.Errorf("query %d: %w", p.shape, err)
		}
		if len(res.Rows) != sv.rows[p.shape] {
			return fmt.Errorf("query %d: %d rows, warm-up had %d", p.shape, len(res.Rows), sv.rows[p.shape])
		}
		if qt != nil {
			qt.n.Add(1)
			if res.Stats.CacheHit {
				qt.hits.Add(1)
			}
			qt.scanned.Add(int64(res.Stats.RowsScanned))
			qt.planNs.Add(int64(res.Stats.PlanTime))
			qt.execNs.Add(int64(res.Stats.ExecTime))
			qt.clientNs.Add(int64(time.Since(t0)))
		}
	}
	return nil
}

// warmUp answers one request of every op the mix uses, paying for lazy
// work such as building the query engine, and records each query shape's
// row count for the checks.
func (r *run) warmUp(ctx context.Context, dep *deployment, cfg serveConfig, sv *served) error {
	sv.rows = make([]int, len(queryShapes))
	for class, w := range cfg.mix {
		if w == 0 {
			continue
		}
		p := plannedOp{class: class, keys: []int{0}}
		if class == opBatch {
			p.keys = make([]int, batchKeys)
			for i := range p.keys {
				p.keys[i] = i % len(sv.keys)
			}
		}
		if class != opQuery {
			if err := r.readOnce(ctx, dep, sv, p, nil, time.Now()); err != nil {
				return err
			}
			continue
		}
		for s, q := range queryShapes {
			res, err := dep.cl.Query(ctx, client.QueryRequest{Query: q, Limit: queryLimit})
			if err != nil {
				return fmt.Errorf("query %d: %w", s, err)
			}
			if len(res.Rows) == 0 {
				return fmt.Errorf("query %d: no rows", s)
			}
			sv.rows[s] = len(res.Rows)
		}
	}
	return nil
}

// summarizeReads records each op class's latency distribution and returns
// the distribution over all reads, at the highest percentile the sample
// count supports. The rate is only a valid reference while it stays below
// saturation: a run whose generator ran late by more than half the limit at
// the median, a backlog rather than a stall of the host, is rejected.
func (r *run) summarizeReads(samples []sample, cfg serveConfig) opSummary {
	q := tailQuantile(len(samples))
	byClass := make([][]float64, len(opNames))
	failed := make([]int, len(opNames))
	all := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	for _, s := range samples {
		v := ms(s.latency)
		byClass[s.class] = append(byClass[s.class], v)
		all = append(all, v)
		late = append(late, ms(s.late))
		if !s.ok {
			failed[s.class]++
		}
	}
	for c, v := range byClass {
		if len(v) > 0 {
			r.rep.Ops[opNames[c]] = summarize(v, failed[c], tailQuantile(len(v)))
		}
	}
	s := summarize(all, int(r.failed.Load()), q)
	r.rep.Ops["all"] = s
	lateS := summarize(late, 0, 0.99)
	r.rep.Ops["lateness"] = lateS
	p99 := percentile(all, 0.99) // summarize sorted all
	r.note("read p99 %.3f ms, generator lateness p50 %.4f ms and p99 %.3f ms, against a %.1f ms limit at %.0f req/s",
		p99, lateS.P50Ms, lateS.TailMs, cfg.limitMs, cfg.rate)
	if lateS.P50Ms > cfg.limitMs/2 {
		r.reject("generator lateness p50 %.3f ms exceeds half the %.1f ms limit: %.0f req/s is beyond saturation on this host", lateS.P50Ms, cfg.limitMs, cfg.rate)
	}
	return s
}

// readBackF1 reads every gold kb-1 key back through the deployment in
// batches and scores the answers against the gold standard.
func (r *run) readBackF1(ctx context.Context, dep *deployment, c *corpus) (float64, error) {
	pairs := c.d.Gold.Pairs()
	got := map[string]string{}
	for lo := 0; lo < len(pairs); lo += 1000 {
		hi := min(lo+1000, len(pairs))
		keys := make([]string, 0, hi-lo)
		for _, p := range pairs[lo:hi] {
			keys = append(keys, p[0])
		}
		res, err := dep.cl.SameAsBatch(ctx, client.BatchSameAsQuery{KB: "1", Keys: keys})
		if err != nil {
			return 0, fmt.Errorf("reading back gold keys: %w", err)
		}
		for _, b := range res.Results {
			if len(b.Matches) > 0 {
				got[b.Key] = b.Matches[0].Key
			}
		}
	}
	return c.d.Gold.Evaluate(got).F1, nil
}

// deploySingle starts one parisd and publishes the alignment into it.
func (r *run) deploySingle(i int, res *core.Result) (*deployment, error) {
	d, err := r.startDaemon(fmt.Sprintf("state%d", i), "parisd", server.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := d.srv.PublishResult(res); err != nil {
		d.close()
		return nil, err
	}
	return &deployment{cl: d.cl, base: d.ts.URL, parisds: []*client.Client{d.cl}, close: d.close}, nil
}

// Fleet shape: shard groups of replicas, one replica of each killed.
const fleetGroups, fleetReplicas = 3, 2

// routerPoll is cmd/parisrouter's default -poll interval.
const routerPoll = 2 * time.Second

// deployFleet starts 3 groups × 2 parisd shards, publishes the snapshot's
// slices to every replica, and starts a parisrouter with the options and
// epoch poll loop cmd/parisrouter uses. The deployment's degrade kills the
// last replica of every group; the router has no say in it.
func (r *run) deployFleet(ctx context.Context, rep int, snap *core.ResultSnapshot) (*deployment, error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	groups := make([][]*client.Client, fleetGroups)
	var elements []string
	var victims, live []*daemon
	killed := false
	closers = append(closers, func() {
		if !killed {
			for _, v := range victims {
				v.close()
			}
		}
	})
	for g := 0; g < fleetGroups; g++ {
		var urls []string
		for k := 0; k < fleetReplicas; k++ {
			d, err := r.startDaemon(fmt.Sprintf("state%d-g%dr%d", rep, g, k), fmt.Sprintf("group%d/replica%d", g, k),
				server.Options{ShardIndex: g, ShardCount: fleetGroups})
			if err != nil {
				closeAll()
				return nil, err
			}
			groups[g] = append(groups[g], d.cl)
			urls = append(urls, d.ts.URL)
			if k == fleetReplicas-1 {
				victims = append(victims, d)
			} else {
				live = append(live, d)
				closers = append(closers, d.close)
			}
		}
		elements = append(elements, strings.Join(urls, ","))
	}
	if err := shard.PublishGroups(ctx, groups, diskstore.SnapshotID(1), snap); err != nil {
		closeAll()
		return nil, err
	}
	rt, err := shard.NewRouter(elements, shard.WithLogf(r.logf))
	if err != nil {
		closeAll()
		return nil, err
	}
	if _, err := rt.Refresh(ctx); err != nil {
		closeAll()
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(routerPoll)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				pctx, cancel := context.WithTimeout(ctx, routerPoll)
				if _, err := rt.Refresh(pctx); err != nil {
					r.logf("parisrouter: refresh: %v", err)
				}
				cancel()
			}
		}
	}()
	closers = append(closers, func() { close(stop); wg.Wait() })
	h := rt.Handler()
	if r.trace {
		h = r.spans.wrap("router", h)
	}
	rts := httptest.NewServer(h)
	closers = append(closers, rts.Close)
	cl, err := client.New(rts.URL, client.WithHTTPClient(r.httpClient()))
	if err != nil {
		closeAll()
		return nil, err
	}
	dep := &deployment{cl: cl, base: rts.URL, close: closeAll}
	for _, d := range live {
		dep.parisds = append(dep.parisds, d.cl)
	}
	dep.degrade = func() {
		for _, v := range victims {
			v.ts.CloseClientConnections()
			v.close()
		}
		killed = true
	}
	return dep, nil
}

// traceServe is the traced run of a read workload: the first half of the
// schedule untraced (the shipped configuration; runtime, cache, router and
// query counters), the second half with every request traced, then the
// alignment pipeline layer by layer and one daemon job on the same corpus.
func (r *run) traceServe(ctx context.Context, dep *deployment, cfg serveConfig, sv *served, c *corpus, plan []plannedOp, conns int) error {
	half := len(plan) / 2
	qt := &queryTotals{}
	lru0, err := lruCounters(ctx, dep)
	if err != nil {
		return err
	}
	var router0, router1 map[string]float64
	if cfg.fleet {
		if router0, err = routerCounters(ctx, dep); err != nil {
			return err
		}
	}
	logs0 := r.logs.bytes.Load()
	rt0 := readRuntime()
	t0 := time.Now()
	a := openLoop(t0, cfg.rate, half, conns, func(i int) (int, bool) {
		return plan[i].class, r.op(r.read(ctx, dep, sv, plan[i], qt, false))
	})
	good := 0
	for _, s := range a {
		if s.ok {
			good++
		}
	}
	r.set("bench.goodput_per_s", float64(good)/time.Since(t0).Seconds(), "1/s")
	r.setRuntime(rt0, readRuntime(), len(a))
	r.set("server.log_bytes_per_op", float64(r.logs.bytes.Load()-logs0)/float64(len(a)), "bytes")
	if cfg.fleet {
		if router1, err = routerCounters(ctx, dep); err != nil {
			return err
		}
	}
	lru1, err := lruCounters(ctx, dep)
	if err != nil {
		return err
	}

	r.spans.on.Store(true)
	b := openLoop(time.Now(), cfg.rate, len(plan)-half, conns, func(i int) (int, bool) {
		p := plan[half+i]
		return p.class, r.op(r.read(ctx, dep, sv, p, nil, true))
	})
	r.spans.on.Store(false)
	r.setSpanLayers(r.spans.all())

	untraced := r.summarizeReads(a, cfg)
	r.set("bench.op_p50_ms", untraced.P50Ms, "ms")
	r.set("bench.op_tail_ms", untraced.TailMs, "ms")
	r.set("bench.lateness_p99_ms", r.rep.Ops["lateness"].TailMs, "ms")
	traced := summarize(latencies(b), 0, 0.5)
	r.set("bench.trace_overhead_ratio", traced.P50Ms/untraced.P50Ms, "ratio")

	hits, misses := lru1[0]-lru0[0], lru1[1]-lru0[1]
	r.set("server.lru_hits", hits, "count")
	r.set("server.lru_misses", misses, "count")
	if hits+misses > 0 {
		r.set("server.lru_hit_ratio", hits/(hits+misses), "ratio")
	}
	if n := qt.n.Load(); n > 0 {
		cl := float64(qt.clientNs.Load())
		r.set("query.plan_share", float64(qt.planNs.Load())/cl, "ratio")
		r.set("query.exec_share", float64(qt.execNs.Load())/cl, "ratio")
		r.set("query.rows_scanned", float64(qt.scanned.Load())/float64(n), "count")
		r.set("query.plan_cache_hit_ratio", float64(qt.hits.Load())/float64(n), "ratio")
	}
	if cfg.fleet {
		delta := func(name string) float64 { return router1[name] - router0[name] }
		fo, hd, hw := delta("paris_router_failovers_total"), delta("paris_router_hedges_total"), delta("paris_router_hedge_wins_total")
		r.set("shard.failovers", fo, "count")
		r.set("shard.hedges", hd, "count")
		r.set("shard.failover_ratio", fo/float64(len(a)), "ratio")
		if hd > 0 {
			r.set("shard.hedge_win_ratio", hw/hd, "ratio")
		}
	}

	// The alignment layers and the job overhead, on this workload's corpus.
	pub, err := server.New(server.Options{StateDir: filepath.Join(r.dir, "pipeline"), Logf: r.logf})
	if err != nil {
		return err
	}
	_, _, lt, err := r.pipeline(ctx, c, core.Config{}, pub, 0)
	pub.Close()
	if err != nil {
		return err
	}
	r.setPipelineLayers([]layerTimes{lt})
	d, err := r.startDaemon("job", "parisd", server.Options{})
	if err != nil {
		return err
	}
	defer d.close()
	jobs, _ := r.cycle(ctx, d, c, alignConfig{}, false, time.Time{})
	if len(jobs) == 0 {
		return fmt.Errorf("daemon job on the served corpus failed: %v", r.failures)
	}
	r.setJobOverhead(jobs[0].latency.Seconds())
	return nil
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency)
	}
	return out
}

// lruCounters sums the normalized-lookup cache hits and misses of every
// live parisd, from GET /v1/stats.
func lruCounters(ctx context.Context, dep *deployment) ([2]float64, error) {
	var out [2]float64
	for _, cl := range dep.parisds {
		st, err := cl.Stats(ctx)
		if err != nil {
			return out, err
		}
		cache, _ := st["cache"].(map[string]any)
		h, _ := cache["hits"].(float64)
		m, _ := cache["misses"].(float64)
		out[0] += h
		out[1] += m
	}
	return out, nil
}

// routerCounters reads the router's failover and hedge counters from its
// GET /metrics exposition.
func routerCounters(ctx context.Context, dep *deployment) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, dep.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping the router: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping the router: %s", resp.Status)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping the router: %w", err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	for _, name := range routerCounterNames {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("scraping the router: no %s", name)
		}
	}
	return out, nil
}

var routerCounterNames = []string{"paris_router_failovers_total", "paris_router_hedges_total", "paris_router_hedge_wins_total"}
