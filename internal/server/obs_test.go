package server

// Telemetry and KB-deletion tests: the /metrics exposition carries every
// instrument family with stable names after real traffic, a client-injected
// trace ID surfaces in the server's span logs, DELETE /v1/kbs enforces the
// in-use rules, and the startup spool GC removes only abandoned uploads.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeMetrics fetches /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns the value of one series in an exposition, or 0 when
// the series is absent (a labeled counter that never moved).
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", series, rest, err)
			}
			return v
		}
	}
	return 0
}

// TestMetricsEndToEnd drives one alignment job plus lookups through the API
// and checks the exposition covers every layer: HTTP, jobs, ingest,
// fixpoint, serving-state and Go runtime families, under their stable
// names. Concurrent read traffic of every kind must then move
// paris_lookups_total by exactly the keys it looked up.
func TestMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	d := writePersonsKB(t, dir, 30)
	srv, ts := newTestServer(t, dir, 1)
	defer srv.Close()
	defer ts.Close()

	j := postJob(t, ts.URL, JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"), KB2: filepath.Join(dir, d.Name2+".nt"),
	})
	if fin := waitDone(t, ts.URL, j.ID); fin.State != JobDone {
		t.Fatalf("job failed: %s", fin.Error)
	}
	a := d.Gold.Pairs()[0]
	if _, code := lookupKey(t, ts.URL, "1", a[0]); code != http.StatusOK {
		t.Fatalf("lookup: %d", code)
	}
	getJSON(t, ts.URL+"/v1/sameas?kb=1&key=no-such-entity", nil) // a 404 sample

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		// HTTP layer: per-route counters with method and status labels, the
		// latency histogram, and the route pattern coming from the mux.
		`paris_http_requests_total{route="POST /v1/jobs",method="POST",code="202"} 1`,
		`paris_http_requests_total{route="GET /v1/sameas",method="GET",code="404"} 1`,
		`paris_http_request_seconds_bucket{route="GET /v1/sameas",le="+Inf"}`,
		"paris_http_in_flight 1", // the /metrics request itself
		// Job manager.
		`paris_jobs_completed_total{kind="align",outcome="done"} 1`,
		`paris_job_seconds_count{kind="align"} 1`,
		"paris_jobs_running 0",
		"paris_jobs_queue_depth 0",
		// Streaming ingest (two KB loads happened).
		"paris_ingest_blocks_total",
		"paris_ingest_triples_total",
		// Fixpoint.
		"paris_fixpoint_iterations_total",
		"paris_fixpoint_iteration_seconds_count",
		// Serving state.
		"paris_lookups_total 2",
		"paris_snapshots 1",
		"paris_snapshots_published_total 1",
		// Go runtime, refreshed on scrape.
		"paris_go_gc_cycles_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The ingest counters must carry the real triple count, not zero.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "paris_ingest_triples_total ") {
			if line == "paris_ingest_triples_total 0" {
				t.Errorf("ingest triples counter stayed zero")
			}
		}
		if strings.HasPrefix(line, "paris_fixpoint_iterations_total ") {
			if line == "paris_fixpoint_iterations_total 0" {
				t.Errorf("fixpoint iteration counter stayed zero")
			}
		}
	}
	for _, gauge := range []string{"paris_go_goroutines", "paris_go_heap_inuse_bytes"} {
		if v := metricValue(t, text, gauge); v <= 0 {
			t.Errorf("%s = %v, want > 0", gauge, v)
		}
	}

	// Read traffic from several goroutines at once: single GETs on gold
	// keys, 64-key batches, and normalized misses (an upper-cased key plus a
	// suffix, so the exact and the folded lookup both miss).
	var keys []string
	for _, p := range d.Gold.Pairs() {
		keys = append(keys, p[0])
	}
	var statsBefore, statsAfter struct {
		Lookups uint64 `json:"lookups"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &statsBefore); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	const workers, gets, batches, misses, batchKeys = 4, 8, 2, 4, 64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range gets {
				k := keys[(w*gets+i)%len(keys)]
				if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sameas?kb=1&key="+queryEscape(k), nil, nil); code != http.StatusOK {
					t.Errorf("GET gold key %s: %d", k, code)
				}
			}
			for i := range batches {
				batch := make([]string, batchKeys)
				for j := range batch {
					batch[j] = keys[(w*batches*batchKeys+i*batchKeys+j)%len(keys)]
				}
				if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sameas",
					map[string]any{"kb": "1", "keys": batch}, nil); code != http.StatusOK {
					t.Errorf("batch POST: %d", code)
				}
			}
			for i := range misses {
				k := strings.ToUpper(keys[(w*misses+i)%len(keys)]) + "/nope" + strconv.Itoa(i)
				if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sameas?kb=1&key="+queryEscape(k), nil, nil); code != http.StatusNotFound {
					t.Errorf("normalized miss %s: %d, want 404", k, code)
				}
			}
		}()
	}
	wg.Wait()
	after := scrapeMetrics(t, ts.URL)
	want := float64(workers * (gets + batchKeys*batches + misses))
	delta := metricValue(t, after, "paris_lookups_total") - metricValue(t, text, "paris_lookups_total")
	if delta != want {
		t.Errorf("paris_lookups_total rose by %v, want %v (GETs + 64 per batch + misses)", delta, want)
	}
	// /v1/stats reports the same counter.
	if code := getJSON(t, ts.URL+"/v1/stats", &statsAfter); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if got := float64(statsAfter.Lookups - statsBefore.Lookups); got != delta {
		t.Errorf("/v1/stats lookups rose by %v, want the counter's %v", got, delta)
	}
}

// TestServerSpanLogCarriesClientTrace injects an X-Paris-Trace header and
// checks the server's span log line reports that trace ID with the client's
// span as parent — the cross-process half of request tracing.
func TestServerSpanLogCarriesClientTrace(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	srv, err := New(Options{StateDir: t.TempDir(), Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := obs.NewTrace()
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set(obs.TraceHeader, tr.String())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	mu.Lock()
	defer mu.Unlock()
	var span string
	for _, l := range lines {
		if strings.Contains(l, "span name=http") {
			span = l
		}
	}
	if span == "" {
		t.Fatalf("no span log line in %q", lines)
	}
	for _, want := range []string{
		"trace=" + tr.TraceID, "parent=" + tr.SpanID,
		"route=GET /v1/healthz", "status=200",
	} {
		if !strings.Contains(span, want) {
			t.Errorf("span log %q missing %q", span, want)
		}
	}
}

// TestDeleteKB covers the deletion lifecycle: 404 for unknown names, 400
// for invalid ones, 409 while a queued or running job references the KB,
// and 200 removing the committed file afterwards.
func TestDeleteKB(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/kbs/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("delete unknown: %d, want 404", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/kbs/.bad", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("delete invalid name: %d, want 400", code)
	}

	doc, _, _ := corpusDocs(t, 20)
	var j Job
	if code := postKB(t, ts.URL, "name=left&format=.nt", doc, &j); code != http.StatusAccepted {
		t.Fatalf("upload: %d", code)
	}
	if fin := waitDone(t, ts.URL, j.ID); fin.State != JobDone {
		t.Fatalf("ingest failed: %s", fin.Error)
	}

	// Hold an align job referencing the KB in the running state: deletion
	// must refuse rather than doom 202-acknowledged work.
	release := make(chan struct{})
	srv.testBeforeAlign = func(string) { <-release }
	aj := postJob(t, ts.URL, JobRequest{KB1: "kb:left", KB2: "kb:left"})
	waitRunning(t, ts.URL, aj.ID)
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/kbs/left", nil, nil); code != http.StatusConflict {
		t.Fatalf("delete while referenced: %d, want 409", code)
	}
	close(release)
	waitDone(t, ts.URL, aj.ID)

	var out struct {
		Deleted string   `json:"deleted"`
		Files   []string `json:"files"`
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/kbs/left", nil, &out); code != http.StatusOK {
		t.Fatalf("delete: %d, want 200", code)
	}
	if out.Deleted != "left" || len(out.Files) != 1 {
		t.Fatalf("delete response: %+v", out)
	}
	var list struct {
		KBs []KBInfo `json:"kbs"`
	}
	getJSON(t, ts.URL+"/v1/kbs", &list)
	if len(list.KBs) != 0 {
		t.Fatalf("KB survived deletion: %+v", list.KBs)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/kbs/left", nil, nil); code != http.StatusNotFound {
		t.Fatalf("re-delete: %d, want 404", code)
	}
}

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var j Job
		getJSON(t, base+"/v1/jobs/"+id, &j)
		if j.State == JobRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never ran", id)
}

// TestSpoolGC checks the startup GC removes only spools older than the TTL.
func TestSpoolGC(t *testing.T) {
	dir := t.TempDir()
	kbs := filepath.Join(dir, "kbs")
	if err := os.MkdirAll(kbs, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(kbs, "old.nt.partial")
	fresh := filepath.Join(kbs, "new.nt.partial")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(stale, past, past); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Options{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale spool survived the GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh spool removed by the GC: %v", err)
	}
}
