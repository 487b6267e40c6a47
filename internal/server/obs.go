package server

// Telemetry wiring: every Server owns one obs.Registry, served on
// GET /metrics in Prometheus text format. The HTTP layer is measured by
// obs.HTTPMetrics middleware (per-route counts, latency, in-flight, plus
// request tracing with span logs); the job manager, the streaming ingest
// pipeline, and the fixpoint feed the instruments below through the hooks
// that already existed for progress reporting.

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// jobBuckets spans job durations: a warm delta re-alignment lands in
// seconds, a cold web-scale alignment in hours.
var jobBuckets = []float64{0.1, 0.5, 1, 5, 15, 60, 300, 1800, 7200, 28800}

// queryBuckets spans query stages: plan-cache hits cost microseconds, cold
// plans and small executions land in the millisecond range, and the worst
// admitted execution is bounded by maxQueryTimeout.
var queryBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 30}

// serverMetrics bundles the Server's instruments. All fields are registered
// at New, so the /metrics exposition lists every family (HELP/TYPE) from
// the first scrape, before any traffic.
type serverMetrics struct {
	http *obs.HTTPMetrics

	jobs *jobMetrics

	ingestBlocks  *obs.Counter
	ingestBytes   *obs.Counter
	ingestTriples *obs.Counter
	ingestRate    *obs.Gauge

	fixpointIterations *obs.Counter
	fixpointSeconds    *obs.Histogram
	fixpointAssigned   *obs.Gauge

	lookups   *obs.Counter
	snapshots *obs.Gauge
	published *obs.Counter

	queries              *obs.CounterVec // outcome
	queryPlanSeconds     *obs.Histogram
	queryExecSeconds     *obs.Histogram
	queryRows            *obs.Counter
	queryPlanCacheHits   *obs.Counter
	queryPlanCacheMisses *obs.Counter
}

// jobMetrics is the job manager's slice of the registry, handed to
// newJobManager so state transitions update the gauges where they happen.
type jobMetrics struct {
	queueDepth *obs.Gauge
	running    *obs.Gauge
	completed  *obs.CounterVec   // kind, outcome
	duration   *obs.HistogramVec // kind
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	// Go runtime health (goroutines, heap, GC) refreshes on every scrape
	// of the registry via its OnScrape hook.
	obs.NewRuntimeMetrics(reg, "paris")
	obs.RegisterBuildInfo(reg)
	return &serverMetrics{
		http: obs.NewHTTPMetrics(reg, "paris_http"),
		jobs: &jobMetrics{
			queueDepth: reg.Gauge("paris_jobs_queue_depth",
				"Jobs waiting in the bounded submission queue."),
			running: reg.Gauge("paris_jobs_running",
				"Jobs currently executing on the worker pool."),
			completed: reg.CounterVec("paris_jobs_completed_total",
				"Jobs that reached a terminal state, by kind and outcome.",
				"kind", "outcome"),
			duration: reg.HistogramVec("paris_job_seconds",
				"Run time of completed jobs in seconds (queue wait excluded), by kind.",
				jobBuckets, "kind"),
		},
		ingestBlocks: reg.Counter("paris_ingest_blocks_total",
			"Input blocks consumed by the streaming KB loader."),
		ingestBytes: reg.Counter("paris_ingest_bytes_total",
			"Decompressed bytes consumed by the streaming KB loader."),
		ingestTriples: reg.Counter("paris_ingest_triples_total",
			"Triples parsed by the streaming KB loader."),
		ingestRate: reg.Gauge("paris_ingest_bytes_per_second",
			"Throughput of the most recently observed streaming KB load."),
		fixpointIterations: reg.Counter("paris_fixpoint_iterations_total",
			"Completed fixpoint iterations across all alignment jobs."),
		fixpointSeconds: reg.Histogram("paris_fixpoint_iteration_seconds",
			"Duration of one fixpoint iteration (instance + relation phases).",
			jobBuckets),
		fixpointAssigned: reg.Gauge("paris_fixpoint_assigned",
			"Entities with a maximal assignment after the latest iteration."),
		lookups: reg.Counter("paris_lookups_total",
			"sameAs keys resolved (batch requests count every key)."),
		snapshots: reg.Gauge("paris_snapshots",
			"Snapshot versions currently persisted."),
		published: reg.Counter("paris_snapshots_published_total",
			"Snapshot versions published (computed, ingested, or recovered-then-extended)."),
		queries: reg.CounterVec("paris_query_total",
			"POST /v1/query requests by outcome (ok, truncated, parse_error, error).",
			"outcome"),
		queryPlanSeconds: reg.Histogram("paris_query_plan_seconds",
			"Query planning time: parse plus join ordering, near-zero on plan-cache hits.",
			queryBuckets),
		queryExecSeconds: reg.Histogram("paris_query_exec_seconds",
			"Query execution time over the union KB.",
			queryBuckets),
		queryRows: reg.Counter("paris_query_rows_returned_total",
			"Result rows returned by POST /v1/query."),
		queryPlanCacheHits: reg.Counter("paris_query_plan_cache_hits_total",
			"Queries answered with a cached plan (same normalized shape)."),
		queryPlanCacheMisses: reg.Counter("paris_query_plan_cache_misses_total",
			"Queries that had to be planned from scratch."),
	}
}

// onIteration returns the per-iteration fixpoint hook for one job: job
// record + SSE progress and process metrics as before, plus a convergence
// record into the flight recorder for GET /v1/jobs/{id}/convergence.
func (s *Server) onIteration(id string) func(int, *core.Aligner) {
	return func(_ int, a *core.Aligner) {
		its := a.Iterations()
		if len(its) == 0 {
			return
		}
		it := its[len(its)-1]
		s.jobs.progress(id, it)
		s.met.fixpoint(it)
		if s.col != nil {
			cs := a.Convergence()
			s.col.ObserveConvergence(id, obs.ConvergenceRecord{
				Iteration:       cs.Iteration,
				Assigned:        cs.Assigned,
				NewPairs:        cs.NewPairs,
				ChangedPairs:    cs.ChangedPairs,
				DroppedPairs:    cs.DroppedPairs,
				ChangedFraction: cs.ChangedFraction,
				ScoreBuckets:    append([]int(nil), cs.ScoreBuckets[:]...),
				WallTime:        it.InstanceTime + it.RelationTime,
			})
		}
	}
}

// fixpoint records one completed iteration.
func (m *serverMetrics) fixpoint(it core.IterationStats) {
	m.fixpointIterations.Inc()
	m.fixpointSeconds.Observe((it.InstanceTime + it.RelationTime).Seconds())
	m.fixpointAssigned.Set(float64(it.Assigned))
}

// ingestFeeder returns a callback that folds one load's cumulative
// ingest.Progress into the process-wide counters. Progress is cumulative
// per load, so the feeder tracks the previous view and adds only the
// deltas; each concurrent load gets its own feeder.
func (m *serverMetrics) ingestFeeder() func(ingest.Progress) {
	var mu sync.Mutex
	var last ingest.Progress
	return func(p ingest.Progress) {
		mu.Lock()
		defer mu.Unlock()
		m.ingestBlocks.Add(delta(int64(p.Blocks), int64(last.Blocks)))
		m.ingestBytes.Add(delta(p.Bytes, last.Bytes))
		m.ingestTriples.Add(delta(p.Triples, last.Triples))
		if p.Elapsed > 0 {
			m.ingestRate.Set(float64(p.Bytes) / p.Elapsed.Seconds())
		}
		last = p
	}
}

func delta(cur, prev int64) uint64 {
	if cur <= prev {
		return 0
	}
	return uint64(cur - prev)
}

// metricKind normalizes a job kind for labels (records predate KindAlign).
func metricKind(kind string) string {
	if kind == "" {
		return KindAlign
	}
	return kind
}

// queue and runningAdd are nil-safe so tests can build a bare jobManager.
func (jm *jobMetrics) queue(n int) {
	if jm != nil {
		jm.queueDepth.Set(float64(n))
	}
}

func (jm *jobMetrics) runningAdd(d float64) {
	if jm != nil {
		jm.running.Add(d)
	}
}

// jobFinished records a terminal transition. started is nil for jobs that
// never ran (dropped or canceled while queued).
func (jm *jobMetrics) jobFinished(kind string, outcome string, started *time.Time, finished time.Time) {
	if jm == nil {
		return
	}
	jm.completed.With(metricKind(kind), outcome).Inc()
	if started != nil {
		jm.duration.With(metricKind(kind)).Observe(finished.Sub(*started).Seconds())
	}
}
