// Command perfbench is the end-to-end benchmark of the shipped PARIS stack.
// It measures alignment jobs submitted to an in-process parisd, and sameAs
// and query reads served by a parisd or by a degraded replicated fleet
// behind a parisrouter. Everything runs as it ships: the daemons' default
// options, span log lines formatted through a log.Logger whose bytes are
// dropped, and the router's 2 s epoch poll loop.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//
// Workloads (BENCHMARK.json records why each one exists):
//
//	align_world           cycles of one cold job on gen.World at scale 1
//	                      (max_iterations 4), then delta jobs for kb 1 and
//	                      kb 2 (one warm pass each); one job outstanding
//	align_person          back-to-back cold jobs on gen.Persons N=500
//	serve_single          open loop at 500 req/s against one parisd serving
//	                      gen.Persons N=5000 (10k kb-1 keys, more than the
//	                      4096-entry normalized LRU): 70% GET, 10% norm,
//	                      15% 64-key batch, 5% query (single/join/type);
//	                      read p99 limit 10 ms
//	serve_fleet_degraded  open loop at 250 req/s through a parisrouter over
//	                      3 groups × 2 replicas, one replica per group killed
//	                      as the window starts; gen.Persons N=1000 (2k keys,
//	                      which fit every LRU): 75% GET, 10% norm, 15% batch;
//	                      read p99 limit 20 ms
//
// The seed drives corpus generation and request choice. Each corpus holds
// out one in 150 plain facts per predicate as the delta of the align_world
// cycle; jobs and served alignments use the remaining base files.
//
// A serve run is valid only below saturation, where the generator keeps to
// its schedule: when the generator's median lateness exceeds half the
// workload's limit, requests queued behind one another for most of the
// window and the run prints correct false. The read p99 and the lateness
// p99 are reported against the limit but do not reject a run: on a shared
// 2-vCPU virtual machine the host stalls the whole guest for 10-60 ms now
// and then, and in such minutes the lateness p99 reached 11-16 ms and the
// read p99 19 ms at these rates, while the median lateness stayed under
// 1 µs. At twice these rates the lateness p99 was 0.8-35 ms.
//
// With --trace 0 it prints the end-to-end metrics, all from untraced runs:
//
//	setup_s        median of 21 set-ups from server.New. Align: parisd
//	               restarting on the state one untimed warm-up job cycle
//	               left, until GET /v1/readyz answers (snapshot recovered
//	               and indexed). Serve: until one request of every op has
//	               answered correctly, including PublishResult, or for the
//	               fleet PublishGroups and Refresh. Corpus generation and
//	               the alignment that serve workloads publish are excluded
//	op_latency_ms  the op latency: for an align workload the 1st percentile
//	               of its cold jobs, each from submit to its SSE done event;
//	               for a serve workload the median read, from its due time
//	               to its checked response
//	peak_heap_mb   heap objects above the pre-server baseline, sampled
//	               from runtime/metrics every 10 ms during the window
//	quality_f1     instance F1 against gold: the median cold job's
//	               snapshot, or the answers read back for every gold key
//
// Why a job's gated latency is its fastest percentile and a read's is its
// median: on a shared 2-vCPU virtual machine the host's neighbours slow the
// guest's CPU by 20-50% for minutes at a time. Over six sets of ten runs
// (quartile spread over median), the align_person median moved by 6-34% and
// its 1st percentile by 8-14%: a 50 ms job often runs through a quiet moment
// even in a busy minute. On align_world the two moved alike (10-33% against
// 10-28%), and one rule serves both align workloads. A read lasts well under
// a millisecond; its low percentiles moved more than its median (18-37%
// against 10-29%). The job median, the tail (the highest percentile with
// ten samples beyond it) and the goodput are printed per layer as
// bench.op_p50_ms, bench.op_tail_ms and bench.goodput_per_s.
//
// On the serve workloads quality_f1 is a sanity check, not a gate a speed
// change can move: the served alignment is computed before timing.
//
// With --trace 1 it re-runs the workload with spans recorded by the
// benchmark's own wrappers around each layer's public entry points and
// prints the per-layer metrics: the alignment pipeline called step by step
// as a job calls it (ingest, store, core, server publish), handler spans
// around every parisd and parisrouter handler, client spans around every
// request, query stats from the responses, router counters from /metrics,
// and runtime counters. Every op's answer is checked against the published
// snapshot or the gold standard; wrong answers count as failed.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics. A report with the host block (nproc,
// GOMAXPROCS, Go version, revision), per-op-class percentiles, and the
// spans of a traced run goes to --out, by default under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// workload measures one set of inputs.
type workload func(ctx context.Context, r *run) error

// workloads maps each workload name to its configuration, full-size or tiny.
var workloads = map[string]func(tiny bool) workload{
	"align_world":          alignWorld,
	"align_person":         alignPerson,
	"serve_single":         serveSingle,
	"serve_fleet_degraded": serveFleetDegraded,
}

func main() {
	name := flag.String("workload", "", "workload to run: align_world, align_person, serve_single, serve_fleet_degraded")
	seed := flag.Int64("seed", 1, "seed for corpus generation and request choice")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 re-runs the workload with spans and prints the per-layer metrics")
	out := flag.String("out", "", "report path (default .bench_build/reports/<workload>-seed<N>[-trace].json)")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if *out == "" {
		suffix := ""
		if *trace == 1 {
			suffix = "-trace"
		}
		*out = filepath.Join(".bench_build", "reports", fmt.Sprintf("%s-seed%d%s.json", *name, *seed, suffix))
	}
	if err := benchmark(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, mk(false), *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// benchmark runs one workload, writes its report, and prints the metric
// table with the result line last.
func benchmark(name string, seed int64, window time.Duration, trace bool, w workload, out string) error {
	r, err := newRun(name, seed, window, trace)
	if err != nil {
		return err
	}
	defer r.cleanup()
	res, err := r.execute(context.Background(), w)
	if err != nil {
		return err
	}
	if err := r.writeReport(out); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	r.printTable(os.Stdout)
	fmt.Println(string(line))
	return nil
}

// metric is one named measurement as printed: a value and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool

	dir   string // scratch state under the checkout, removed at exit
	start time.Time

	logs *logSink
	logf func(string, ...any) // the daemons' span logger

	spans *spanLog

	attempted, failed atomic.Int64

	mu       sync.Mutex
	failures []string
	rejected bool // the measurements are invalid, whatever the ops answered
	metrics  map[string]metric
	rep      report
}

// newRun prepares a run's scratch directory and logger.
func newRun(workload string, seed int64, window time.Duration, trace bool) (*run, error) {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, workload+"-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	sink := &logSink{}
	r := &run{
		workload: workload,
		seed:     seed,
		window:   window,
		trace:    trace,
		dir:      abs,
		start:    time.Now(),
		logs:     sink,
		// parisd and parisrouter pass log.Printf: every span formats one
		// line with the standard flags. The sink drops the bytes.
		logf:    log.New(sink, "", log.LstdFlags).Printf,
		metrics: map[string]metric{},
	}
	r.spans = &spanLog{t0: r.start}
	bi := obs.ReadBuildInfo()
	r.rep = report{
		Schema:   "perfbench-report/v1",
		Workload: workload,
		Seed:     seed,
		Seconds:  window.Seconds(),
		Trace:    trace,
		Host: host{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Revision:   bi.Revision,
			Version:    bi.Version,
		},
		Ops: map[string]opSummary{},
	}
	return r, nil
}

func (r *run) cleanup() { os.RemoveAll(r.dir) }

// logSink counts and drops the daemons' log output. It must not be
// io.Discard: a log.Logger writing to io.Discard skips formatting, and the
// shipped daemons pay for it.
type logSink struct{ bytes atomic.Int64 }

func (s *logSink) Write(p []byte) (int, error) {
	s.bytes.Add(int64(len(p)))
	return len(p), nil
}

// spec names one printed metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"op_latency_ms", "ms"},
	{"peak_heap_mb", "MiB"},
	{"quality_f1", "ratio"},
}

// perLayer are the metrics a traced run prints. A layer a workload does not
// exercise (the query engine or the router, say) reads 0; those layers
// report ratios and counts.
var perLayer = []spec{
	{"ingest.parse_s", "s"},
	{"ingest.triples_per_s", "1/s"},
	{"store.build_s", "s"},
	{"store.apply_delta_s", "s"},
	{"core.functionality_s", "s"},
	{"core.instance_pass_s", "s"},
	{"core.relation_pass_s", "s"},
	{"core.subclass_pass_s", "s"},
	{"core.warm_pass_s", "s"},
	{"core.iterations", "count"},
	{"core.warm_iterations", "count"},
	{"core.snapshot_encode_s", "s"},
	{"core.snapshot_bytes", "bytes"},
	{"server.publish_s", "s"},
	{"server.job_overhead_s", "s"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.log_bytes_per_op", "bytes"},
	{"server.lru_hit_ratio", "ratio"},
	{"server.lru_hits", "count"},
	{"server.lru_misses", "count"},
	{"query.plan_share", "ratio"},
	{"query.exec_share", "ratio"},
	{"query.rows_scanned", "count"},
	{"query.plan_cache_hit_ratio", "ratio"},
	{"shard.router_self_share", "ratio"},
	{"shard.upstream_share", "ratio"},
	{"shard.fanout_per_batch", "count"},
	{"shard.failover_ratio", "ratio"},
	{"shard.failovers", "count"},
	{"shard.hedges", "count"},
	{"shard.hedge_win_ratio", "ratio"},
	{"client.transport_p50_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"bench.op_p50_ms", "ms"},
	{"bench.op_tail_ms", "ms"},
	{"bench.goodput_per_s", "1/s"},
	{"bench.lateness_p99_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.spans", "count"},
}

// execute measures the workload and assembles the printed result: exactly
// the end-to-end metrics, or with tracing exactly the per-layer ones.
func (r *run) execute(ctx context.Context, w workload) (result, error) {
	if err := w(ctx, r); err != nil {
		return result{}, err
	}
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	printed := make(map[string]metric, len(want))
	for _, s := range want {
		m, ok := r.metrics[s.name]
		if !ok {
			m = metric{Value: 0, Unit: s.unit}
			r.note("%s: layer not exercised by %s", s.name, r.workload)
		}
		if m.Unit != s.unit {
			return result{}, fmt.Errorf("%s measured in %s, declared in %s", s.name, m.Unit, s.unit)
		}
		printed[s.name] = m
	}
	r.metrics = printed
	res := result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   printed,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && !r.rejected
	r.rep.Result = res
	r.rep.Failures = r.failures
	return res, nil
}

// op counts one attempted operation and, when err is non-nil, its failure.
// A wrong answer is a failure like a transport error.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.wrong(err)
	return false
}

// wrong turns an operation already counted as attempted into a failure.
func (r *run) wrong(err error) {
	if r.failed.Add(1) <= 20 {
		r.mu.Lock()
		r.failures = append(r.failures, err.Error())
		r.mu.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
	}
}

// reject marks the run's measurements invalid: it prints correct false.
func (r *run) reject(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.rejected = true
	r.failures = append(r.failures, msg)
	r.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, msg)
}

func (r *run) set(name string, value float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.mu.Unlock()
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	r.rep.Notes = append(r.rep.Notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// host is the report's record of where the numbers were taken.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Version    string `json:"version"`
}

// report is the JSON document written to --out.
type report struct {
	Schema   string               `json:"schema"`
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Host     host                 `json:"host"`
	Result   result               `json:"result"`
	SetupS   []float64            `json:"setup_s"`
	Ops      map[string]opSummary `json:"ops"`
	Notes    []string             `json:"notes,omitempty"`
	Failures []string             `json:"failures,omitempty"`
	Spans    []span               `json:"spans,omitempty"`
}

func (r *run) writeReport(path string) error {
	if r.trace {
		r.rep.Spans = r.spans.all()
	}
	data, err := json.MarshalIndent(r.rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric by name and unit, then the op classes.
func (r *run) printTable(w io.Writer) {
	h := r.rep.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s rev=%s\n",
		r.workload, r.seed, r.window.Seconds(), r.trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Revision)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	classes := make([]string, 0, len(r.rep.Ops))
	for c := range r.rep.Ops {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := r.rep.Ops[c]
		fmt.Fprintf(w, "  op %-18s n=%-7d failed=%-4d p1=%.4gms p50=%.4gms p%g=%.4gms (%d beyond) max=%.4gms\n",
			c, s.N, s.Failed, s.P1Ms, s.P50Ms, 100*s.TailQ, s.TailMs, s.Beyond, s.MaxMs)
	}
	if len(r.failures) > 0 {
		fmt.Fprintf(w, "  failures: %s\n", strings.Join(r.failures, "; "))
	}
}
