package server

// Tests for POST /v1/query: conjunctive queries over the aligned union KB,
// including the cross-KB sameAs join that neither source KB answers alone,
// plan-cache behaviour across repeated requests, snapshot pinning, the
// validation surface, the query metric families on /metrics, and the
// single-flight build of each snapshot's engine.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/gen"
	"repro/internal/query"
)

const (
	qykb = "http://ykbfilm.example.org/"
	qikb = "http://ikb.example.org/"
)

// publishMovies aligns a movies corpus offline and publishes the result.
func publishMovies(t *testing.T, srv *Server) string {
	t.Helper()
	return publishAligned(t, srv, gen.Movies(gen.MoviesConfig{Seed: 7, People: 120, Movies: 40}))
}

// publishAligned aligns d offline and publishes the result, so the server
// retains the ontology pair the union KB is built from.
func publishAligned(t testing.TB, srv *Server, d *gen.Dataset) string {
	t.Helper()
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{}).Run()
	if len(res.Instances) == 0 {
		t.Fatal("alignment produced nothing")
	}
	id, err := srv.PublishResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestQueryEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()
	snapID := publishMovies(t, srv)

	// The cross-KB proof query: directed lives only in the ykb ontology,
	// hasGenre only in the ikb one, so every row needs the alignment.
	crossQ := `?d <` + qykb + `directed> ?m . ?m <` + qikb + `hasGenre> ?g`

	var resp QueryResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{Query: crossQ}, &resp)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/query: %d", code)
	}
	if resp.Snapshot != snapID {
		t.Fatalf("query served from %s, want %s", resp.Snapshot, snapID)
	}
	if len(resp.Vars) != 3 || resp.Vars[0] != "d" || resp.Vars[1] != "m" || resp.Vars[2] != "g" {
		t.Fatalf("vars = %v", resp.Vars)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("cross-KB join returned no rows")
	}
	// At least one movie binding spans both ontologies — a row neither KB
	// holds alone (some rows come from KB2 via the directorOf rewrite).
	spanning := 0
	for _, row := range resp.Rows {
		if len(row[1].KB1) > 0 && len(row[1].KB2) > 0 {
			spanning++
		}
	}
	if spanning == 0 {
		t.Fatalf("none of the %d rows joins through a sameAs cluster", len(resp.Rows))
	}
	if resp.Stats.CacheHit {
		t.Fatal("first query reported a plan-cache hit")
	}

	// The same shape planned again hits the cached plan.
	var again QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{Query: crossQ}, &again); code != http.StatusOK {
		t.Fatalf("repeat query: %d", code)
	}
	if !again.Stats.CacheHit {
		t.Fatal("repeated query missed the plan cache")
	}
	if len(again.Rows) != len(resp.Rows) {
		t.Fatalf("repeat query: %d rows, first run %d", len(again.Rows), len(resp.Rows))
	}

	// Pinned to the same snapshot explicitly.
	var pinned QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		QueryRequest{Query: crossQ, Snapshot: snapID}, &pinned); code != http.StatusOK {
		t.Fatalf("pinned query: %d", code)
	}
	if pinned.Snapshot != snapID || len(pinned.Rows) != len(resp.Rows) {
		t.Fatalf("pinned query: %d rows from %s", len(pinned.Rows), pinned.Snapshot)
	}

	// A limit of 1 truncates the same result set.
	var lim QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		QueryRequest{Query: crossQ, Limit: 1}, &lim); code != http.StatusOK {
		t.Fatalf("limited query: %d", code)
	}
	if len(lim.Rows) != 1 || !lim.Truncated {
		t.Fatalf("limit=1: %d rows, truncated=%v", len(lim.Rows), lim.Truncated)
	}

	// Validation surface.
	for _, bad := range []struct {
		req  QueryRequest
		want int
	}{
		{QueryRequest{Query: ""}, http.StatusBadRequest},
		{QueryRequest{Query: `?x <oops`}, http.StatusBadRequest},
		{QueryRequest{Query: crossQ, Limit: maxQueryLimit + 1}, http.StatusBadRequest},
		{QueryRequest{Query: crossQ, TimeoutMS: 31_000}, http.StatusBadRequest},
		{QueryRequest{Query: crossQ, Snapshot: "v999"}, http.StatusNotFound},
	} {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", bad.req, nil); code != bad.want {
			t.Fatalf("query %+v: %d, want %d", bad.req, code, bad.want)
		}
	}

	// The metric families are live after traffic.
	body := scrapeMetrics(t, ts.URL)
	for _, family := range []string{
		`paris_query_total{outcome="ok"}`,
		"paris_query_plan_seconds",
		"paris_query_exec_seconds",
		"paris_query_rows_returned_total",
		"paris_query_plan_cache_hits_total",
		"paris_query_plan_cache_misses_total",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics missing %s", family)
		}
	}

	// perfbench's three query shapes — one pattern, a cross-KB join through
	// sameAs clusters, a type scan with subclass expansion — from several
	// goroutines at once, on a persons snapshot no query has touched. Each
	// counts as one ok query, and since concurrent misses of a shape wait
	// for one plan, exactly one query per shape misses the plan cache.
	publishAligned(t, srv, gen.Persons(gen.PersonsConfig{N: 30, Seed: 7}))
	const pNS1, pNS2 = "http://person1.example.org/", "http://person2.example.org/"
	shapes := []string{
		`?p <` + pNS1 + `has_address> ?a`,
		`?p <` + pNS1 + `has_address> ?a . ?a <` + pNS2 + `zipCode> ?z`,
		`?x a <` + pNS2 + `Human>`,
	}
	before := scrapeMetrics(t, ts.URL)
	const workers, perWorker = 4, 6
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				q := shapes[(w+i)%len(shapes)]
				var resp QueryResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{Query: q}, &resp); code != http.StatusOK ||
					len(resp.Rows) == 0 || resp.Truncated {
					t.Errorf("query %q: %d, %d rows, truncated=%v", q, code, len(resp.Rows), resp.Truncated)
				}
			}
		}()
	}
	wg.Wait()
	after := scrapeMetrics(t, ts.URL)
	n := float64(workers * perWorker)
	for _, c := range []struct {
		series string
		want   float64
	}{
		{`paris_query_total{outcome="ok"}`, n},
		{"paris_query_plan_cache_misses_total", float64(len(shapes))},
		{"paris_query_plan_cache_hits_total", n - float64(len(shapes))},
	} {
		if got := metricValue(t, after, c.series) - metricValue(t, before, c.series); got != c.want {
			t.Errorf("%s rose by %v across %v queries, want %v", c.series, got, n, c.want)
		}
	}
}

// TestQueryEngineSingleFlight: 16 first queries of a snapshot arrive
// together; exactly one builds its union KB and all 16 get that engine. A
// failed build reaches every caller and is not cached.
func TestQueryEngineSingleFlight(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	snapID := publishMovies(t, srv)
	const callers = 16
	engs, errs := make([]*query.Engine, callers), make([]error, callers)
	stampede := func(beforeBuild func()) int {
		return cacheStampede(t, srv, callers, beforeBuild, func(r int) {
			engs[r], errs[r] = srv.engineFor(context.Background(), snapID)
		})
	}

	if builds := stampede(func() {}); builds != 1 {
		t.Fatalf("%d callers built the union KB, want 1", builds)
	}
	for r := range callers {
		if errs[r] != nil || engs[r] == nil || engs[r] != engs[0] {
			t.Fatalf("caller %d got (%p, %v), caller 0 got %p", r, engs[r], errs[r], engs[0])
		}
	}
	if eng, err := srv.engineFor(context.Background(), snapID); err != nil || eng != engs[0] {
		t.Fatalf("later query got (%p, %v), want the cached %p", eng, err, engs[0])
	}

	// Evict the entry, then retire the snapshot from the store while its
	// rebuild is held: every caller gets the error and the failure is not
	// cached, so the next query builds again.
	srv.mu.Lock()
	delete(srv.engines, snapID)
	srv.mu.Unlock()
	builds := stampede(func() {
		if err := diskstore.DeleteSnapshot(srv.store, snapID); err != nil {
			t.Error(err)
		}
	})
	if builds != 1 {
		t.Fatalf("%d callers built the failing union KB, want 1", builds)
	}
	for r := range callers {
		if errs[r] == nil || engs[r] != nil {
			t.Fatalf("caller %d got (%p, %v), want the build error", r, engs[r], errs[r])
		}
	}
	srv.mu.Lock()
	_, cached := srv.engines[snapID]
	srv.mu.Unlock()
	if cached {
		t.Fatal("failed build left a query-engine cache entry")
	}
	if builds := cacheStampede(t, srv, 1, func() {}, func(int) { srv.engineFor(context.Background(), snapID) }); builds != 1 {
		t.Fatalf("query after a failed build: %d builds, want 1", builds)
	}
}

func TestQueryNoSnapshot(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{Query: `?a <http://x/p> ?b`}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query before any snapshot: %d, want 503", code)
	}
}

func TestQueryRejectedOnShard(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir(), ShardCount: 3, ShardIndex: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{Query: `?a <http://x/p> ?b`}, nil); code != http.StatusForbidden {
		t.Fatalf("shard accepted a query: %d", code)
	}
}
