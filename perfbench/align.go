package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// setupReps is how many times a run sets up its deployment; setup_s is the
// median, and the last deployment serves the measured window. Each set-up
// starts from a collected heap, so whether a collection lands inside it does
// not depend on the set-up before.
const setupReps = 21

// alignConfig describes an alignment workload.
type alignConfig struct {
	corpus  func(seed int64) *gen.Dataset
	maxIter int     // max_iterations of the cold jobs; 0 is the default
	deltas  bool    // each cycle adds the two delta jobs
	f1Floor float64 // every job's snapshot must reach this F1
}

// warmIter is the max_iterations of a delta job: one warm pass, so every
// delta job does the same work whatever the seed.
const warmIter = 1

func alignWorld(tiny bool) workload {
	scale := 1.0
	if tiny {
		scale = 0.05
	}
	cfg := alignConfig{
		corpus: func(seed int64) *gen.Dataset {
			return gen.World(gen.WorldConfig{
				Seed:      seed,
				People:    int(6000 * scale),
				Cities:    int(250 * scale),
				Companies: int(200 * scale),
				Movies:    int(1500 * scale),
				Albums:    int(1200 * scale),
				Books:     int(1200 * scale),
			})
		},
		// Four iterations as in Table 3: the world corpus's convergence
		// point swings with the seed, and a cap keeps each job's work fixed.
		maxIter: 4,
		deltas:  true,
		f1Floor: 0.80,
	}
	if tiny {
		cfg.f1Floor = 0.3
	}
	return func(ctx context.Context, r *run) error { return r.runAlign(ctx, cfg) }
}

func alignPerson(tiny bool) workload {
	n := 500
	if tiny {
		n = 50
	}
	cfg := alignConfig{
		corpus:  func(seed int64) *gen.Dataset { return gen.Persons(gen.PersonsConfig{N: n, Seed: seed}) },
		f1Floor: 0.95,
	}
	return func(ctx context.Context, r *run) error { return r.runAlign(ctx, cfg) }
}

// daemon is an in-process parisd behind a loopback listener.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

// startDaemon starts a parisd with the options cmd/parisd passes by
// default, logging through the run's span logger. In a traced run its
// handler is wrapped in the span recorder under name.
func (r *run) startDaemon(state, name string, opts server.Options) (*daemon, error) {
	opts.StateDir = filepath.Join(r.dir, state)
	opts.Logf = r.logf
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if r.trace {
		h = r.spans.wrap(name, h)
	}
	ts := httptest.NewServer(h)
	cl, err := client.New(ts.URL, client.WithHTTPClient(r.httpClient()))
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, ts: ts, cl: cl}, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// httpClient is a client with at most nproc connections per host, the
// generator's connection budget.
func (r *run) httpClient() *http.Client {
	n := runtime.NumCPU()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = n
	tr.MaxIdleConnsPerHost = n
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// jobRun is one job as the client saw it.
type jobRun struct {
	kind     string // cold, delta1, delta2
	latency  time.Duration
	late     time.Duration // from the previous job's end to this submit
	snapshot string
}

// cycle runs one cold job and, when configured, the two delta jobs, one at
// a time, the first submitted when the job before it (ended at prev, zero
// for none) finished. Each job is timed from submit to its SSE done event.
// It returns the jobs that succeeded and when the last one ended.
func (r *run) cycle(ctx context.Context, d *daemon, c *corpus, cfg alignConfig, traced bool, prev time.Time) ([]jobRun, time.Time) {
	type step struct {
		kind   string
		submit func(ctx context.Context) (client.Job, error)
	}
	steps := []step{{"cold", func(ctx context.Context) (client.Job, error) {
		return d.cl.SubmitJob(ctx, client.JobRequest{KB1: c.kb1, KB2: c.kb2, MaxIterations: cfg.maxIter})
	}}}
	if cfg.deltas {
		steps = append(steps,
			step{"delta1", func(ctx context.Context) (client.Job, error) {
				return d.cl.SubmitDelta(ctx, client.DeltaRequest{KB: "1", NTriples: c.delta1, MaxIterations: warmIter})
			}},
			step{"delta2", func(ctx context.Context) (client.Job, error) {
				return d.cl.SubmitDelta(ctx, client.DeltaRequest{KB: "2", NTriples: c.delta2, MaxIterations: warmIter})
			}})
	}
	// Traced, the submit and the watch each carry a trace of their own, so
	// every trace pairs one client span with one handler span.
	newCtx := func() context.Context {
		if !traced {
			return ctx
		}
		c, _ := client.NewTrace(ctx)
		return c
	}
	var out []jobRun
	for _, s := range steps {
		t0 := time.Now()
		var late time.Duration
		if !prev.IsZero() {
			late = t0.Sub(prev)
		}
		sctx := newCtx()
		j, err := s.submit(sctx)
		if err == nil {
			sent := time.Now()
			r.clientSpan(sctx, "POST", t0, sent, false)
			wctx := newCtx()
			j, err = d.cl.WatchJob(wctx, j.ID, nil)
			r.clientSpan(wctx, "GET", sent, time.Now(), true)
		}
		prev = time.Now()
		if err == nil && j.State != client.JobDone {
			err = fmt.Errorf("%s job %s ended %s: %s", s.kind, j.ID, j.State, j.Error)
		}
		if !r.op(err) {
			break
		}
		out = append(out, jobRun{kind: s.kind, latency: prev.Sub(t0), late: late, snapshot: j.Snapshot})
	}
	return out, prev
}

// clientSpan records a client-side span for a traced context.
func (r *run) clientSpan(ctx context.Context, method string, start, end time.Time, stream bool) {
	if tr, ok := obs.TraceFrom(ctx); ok && r.spans.on.Load() {
		r.spans.record("client", method, tr, start, end, stream)
	}
}

// checkJobs fetches every job's snapshot with client.GetSnapshot and checks
// its F1 against the floor, returning the cold jobs' F1 values. A job below
// the floor, already counted as attempted, becomes a failure.
func (r *run) checkJobs(ctx context.Context, d *daemon, c *corpus, jobs []jobRun, floor float64) ([]float64, error) {
	var cold []float64
	for _, j := range jobs {
		snap, err := d.cl.GetSnapshot(ctx, j.snapshot)
		if err != nil {
			return nil, fmt.Errorf("fetching %s: %w", j.snapshot, err)
		}
		f := c.f1(snap)
		if f < floor {
			r.wrong(fmt.Errorf("%s job snapshot %s: F1 %.4f below the floor %.2f", j.kind, j.snapshot, f, floor))
		}
		if j.kind == "cold" {
			cold = append(cold, f)
		}
	}
	return cold, nil
}

// runAlign measures an alignment workload: jobs on one in-process parisd,
// one outstanding at a time, for the window.
func (r *run) runAlign(ctx context.Context, cfg alignConfig) error {
	d := cfg.corpus(r.seed)
	c, err := prepare(filepath.Join(r.dir, "corpus"), d)
	if err != nil {
		return err
	}
	base := heapBaseline()

	// Warm-up, untimed: a fresh parisd runs one job cycle, so every job kind
	// has answered correctly and the corpus files sit in the page cache.
	dep, err := r.startDaemon("state", "parisd", server.Options{})
	if err != nil {
		return err
	}
	warm, _ := r.cycle(ctx, dep, c, cfg, false, time.Time{})
	if r.failed.Load() == 0 {
		_, err = r.checkJobs(ctx, dep, c, warm, cfg.f1Floor)
	}
	dep.close()
	if err != nil || r.failed.Load() > 0 {
		return fmt.Errorf("warm-up: %v %v", err, r.failures)
	}
	r.attempted.Store(0)

	// Set-up: parisd restarting on the state that cycle left, until GET
	// /v1/readyz answers, that is until it serves the recovered snapshot.
	// The last restart serves the window.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			dep.close()
		}
		runtime.GC()
		t0 := time.Now()
		dep, err = r.startDaemon("state", "parisd", server.Options{})
		if err != nil {
			return err
		}
		if err := dep.cl.Ready(ctx); err != nil {
			dep.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer dep.close()
	r.rep.SetupS = setups
	r.set("setup_s", median(setups), "s")

	if r.trace {
		return r.traceAlign(ctx, dep, c, cfg)
	}

	heap := startHeapSampler(base)
	jobs := r.jobsFor(ctx, dep, c, cfg, r.window, false)
	peak := heap.finish()

	cold, err := r.checkJobs(ctx, dep, c, jobs, cfg.f1Floor)
	if err != nil {
		return err
	}
	r.set("op_latency_ms", r.summarizeJobs(jobs).P1Ms, "ms")
	r.set("peak_heap_mb", peak, "MiB")
	r.set("quality_f1", median(cold), "ratio")
	return nil
}

// jobsFor runs cycles until the window has passed; the cycle in flight at
// the deadline completes.
func (r *run) jobsFor(ctx context.Context, d *daemon, c *corpus, cfg alignConfig, window time.Duration, traced bool) []jobRun {
	var jobs []jobRun
	var prev time.Time
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		var js []jobRun
		js, prev = r.cycle(ctx, d, c, cfg, traced, prev)
		jobs = append(jobs, js...)
		if len(js) == 0 {
			break
		}
	}
	return jobs
}

// summarizeJobs records each job kind's distribution in the report, at the
// highest percentile its sample count supports, and returns the cold jobs'.
// A workload's op is its cold job, the paper's time to align; delta jobs
// show in bench.goodput_per_s and in their own report rows.
func (r *run) summarizeJobs(jobs []jobRun) opSummary {
	byKind := map[string][]float64{}
	for _, j := range jobs {
		byKind[j.kind] = append(byKind[j.kind], ms(j.latency))
	}
	for k, v := range byKind {
		r.rep.Ops[k] = summarize(v, 0, tailQuantile(len(v)))
	}
	return r.rep.Ops["cold"]
}

// traceAlign is the traced run of an alignment workload, in three equal
// parts: untraced jobs (the shipped configuration), the same jobs with
// client and handler spans recorded, and the job's pipeline called layer by
// layer from the benchmark.
func (r *run) traceAlign(ctx context.Context, dep *daemon, c *corpus, cfg alignConfig) error {
	part := r.window / 3
	logs0 := r.logs.bytes.Load()
	rt0 := readRuntime()
	t0 := time.Now()
	untraced := r.jobsFor(ctx, dep, c, cfg, part, false)
	r.set("bench.goodput_per_s", float64(len(untraced))/time.Since(t0).Seconds(), "1/s")
	r.setRuntime(rt0, readRuntime(), len(untraced))
	r.set("server.log_bytes_per_op", float64(r.logs.bytes.Load()-logs0)/float64(max(1, len(untraced))), "bytes")

	r.spans.on.Store(true)
	traced := r.jobsFor(ctx, dep, c, cfg, part, true)
	r.spans.on.Store(false)
	r.setSpanLayers(r.spans.all())

	passes, err := r.pipelinePasses(ctx, c, cfg, part)
	if err != nil {
		return err
	}
	r.setPipelineLayers(passes)

	if _, err := r.checkJobs(ctx, dep, c, append(untraced, traced...), cfg.f1Floor); err != nil {
		return err
	}
	var cold, late []float64
	for _, j := range untraced {
		if j.kind == "cold" {
			cold = append(cold, j.latency.Seconds())
		}
		if j.late > 0 {
			late = append(late, ms(j.late))
		}
	}
	r.setJobOverhead(median(cold))
	lat := func(js []jobRun) float64 {
		xs := make([]float64, len(js))
		for i, j := range js {
			xs[i] = ms(j.latency)
		}
		return median(xs)
	}
	r.set("bench.trace_overhead_ratio", lat(traced)/lat(untraced), "ratio")
	// A closed loop's next job is due when the previous one ends; the
	// generator's lateness is the gap before it submits.
	sort.Float64s(late)
	r.set("bench.lateness_p99_ms", percentile(late, 0.99), "ms")
	s := r.summarizeJobs(untraced)
	r.set("bench.op_p50_ms", s.P50Ms, "ms")
	r.set("bench.op_tail_ms", s.TailMs, "ms")
	return nil
}

// pipelinePasses calls the job pipeline repeatedly for the given time, at
// least once, publishing into a daemon of its own.
func (r *run) pipelinePasses(ctx context.Context, c *corpus, cfg alignConfig, d time.Duration) ([]layerTimes, error) {
	dir := filepath.Join(r.dir, "pipeline")
	pub, err := server.New(server.Options{StateDir: dir, Logf: r.logf})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer pub.Close()
	warm := 0
	if cfg.deltas {
		warm = warmIter
	}
	var passes []layerTimes
	deadline := time.Now().Add(d)
	for len(passes) == 0 || time.Now().Before(deadline) {
		_, _, lt, err := r.pipeline(ctx, c, core.Config{MaxIterations: cfg.maxIter}, pub, warm)
		if err != nil {
			return nil, err
		}
		passes = append(passes, lt)
	}
	return passes, nil
}

// setJobOverhead records what a cold job costs beyond its layers: the
// untraced job's client-side median minus the traced layer medians.
func (r *run) setJobOverhead(jobS float64) {
	sum := 0.0
	for _, name := range []string{"ingest.parse_s", "store.build_s", "core.functionality_s",
		"core.instance_pass_s", "core.relation_pass_s", "core.subclass_pass_s", "server.publish_s"} {
		sum += r.metrics[name].Value
	}
	r.set("server.job_overhead_s", jobS-sum, "s")
	r.note("cold job %.4f s = layers %.4f s + overhead %.4f s", jobS, sum, jobS-sum)
}
