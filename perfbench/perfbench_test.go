package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20000, 0.999}, {10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95},
		{200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {20, 0.5}, {3, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); c.n >= 20 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want at least 10", c.n, 100*q, beyond(c.n, q))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100, 0.01: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("nearest-rank p%g of 1..100 = %g, want %g", 100*q, got, want)
		}
	}
	if b := beyond(100, 0.9); b != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", b)
	}
	s := summarize([]float64{5, 1, 4, 2, 3}, 0, 0.5)
	if s.P50Ms != 3 || s.MaxMs != 5 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestOpenLoopChargesStall stalls one request for 50 ms while holding a lock
// every request needs. The requests due during the stall must be charged
// the wait from their due time, not timed from when they got through.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var mu sync.Mutex
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if served.Add(1) == 100 {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	samples := openLoop(time.Now(), 1000, 300, 2, func(i int) (int, bool) {
		resp, err := c.Get(ts.URL)
		if err != nil {
			return 0, false
		}
		resp.Body.Close()
		return 0, true
	})
	var charged int
	var worst time.Duration
	for _, s := range samples {
		if !s.ok {
			t.Fatal("request failed")
		}
		if s.latency >= stall/2 {
			charged++
		}
		worst = max(worst, s.latency)
	}
	// At 1 request/ms, about 50 requests fall due during the stall; the
	// first half of them waited at least half of it.
	if charged < 20 {
		t.Errorf("%d requests charged ≥ %v, want at least 20 of the ~50 due during the stall", charged, stall/2)
	}
	if worst < stall {
		t.Errorf("worst latency %v, want at least the %v stall", worst, stall)
	}
}

// TestSaturatedRunIsRejected checks the validity rule of a serve run: a
// generator late by more than half the limit at the median, a backlog, makes
// the run print correct false; a host stall that sets only the p99 of the
// reads and of the lateness does not.
func TestSaturatedRunIsRejected(t *testing.T) {
	for _, c := range []struct {
		name      string
		share     int // per mille of the reads that carry lat and late
		lat, late time.Duration
		reject    bool
	}{
		{"below the limit", 20, time.Millisecond, time.Millisecond, false},
		{"stall: p99 over the limit", 20, 30 * time.Millisecond, 25 * time.Millisecond, false},
		{"backlog", 600, 30 * time.Millisecond, 6 * time.Millisecond, true},
	} {
		r, err := newRun("serve_single", 1, time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		samples := make([]sample, 1000)
		for i := range samples {
			samples[i] = sample{class: opGet, latency: 100 * time.Microsecond, ok: true}
			if i < c.share {
				samples[i].latency, samples[i].late = c.lat, c.late
			}
		}
		r.summarizeReads(samples, serveConfig{rate: 500, limitMs: 10})
		r.cleanup()
		if r.rejected != c.reject {
			t.Errorf("%s: rejected %v, want %v (%v)", c.name, r.rejected, c.reject, r.failures)
		}
	}
}

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestBenchmarkJSON checks BENCHMARK.json against the code, then runs all
// four workloads at a tiny scale, untraced and traced, and checks that each
// prints exactly the metrics the file lists, with their units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	var e2e, layer []spec
	for _, m := range b.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		check(m.Name)
		layer = append(layer, spec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, the code prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, the code prints %v", layer, perLayer)
	}

	start := time.Now()
	for _, name := range []string{"align_world", "align_person", "serve_single", "serve_fleet_degraded"} {
		for _, trace := range []bool{false, true} {
			r, err := newRun(name, 7, 300*time.Millisecond, trace)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.execute(context.Background(), workloads[name](true))
			r.cleanup()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, trace, res.Correct, res.Attempted, res.Failed, r.failures)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %s", name, trace, s.name, m, s.unit)
				}
			}
			for _, s := range endToEnd {
				if m := res.Metrics[s.name]; !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, must never be 0", name, s.name, m.Value)
				}
			}
			if trace && name == "serve_fleet_degraded" {
				m := res.Metrics
				// Every read still answers correctly with one replica per
				// group dead: the router routed around them, by failing over
				// on the transport error or, when that error came after the
				// hedge budget, by the hedge it had already launched.
				if m["shard.failovers"].Value+m["shard.hedges"].Value < 1 || m["shard.fanout_per_batch"].Value <= 1 || m["shard.upstream_share"].Value <= 0 {
					t.Errorf("fleet: failovers %g, hedges %g, fan-out %g, upstream share %g", m["shard.failovers"].Value,
						m["shard.hedges"].Value, m["shard.fanout_per_batch"].Value, m["shard.upstream_share"].Value)
				}
			}
			if trace && name == "serve_single" && res.Metrics["server.lru_hits"].Value+res.Metrics["server.lru_misses"].Value < 1 {
				t.Errorf("serve_single: no normalized lookups reached the LRU")
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("tiny runs of all four workloads took %v, want under 10s", d)
	}
}
