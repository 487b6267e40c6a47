package shard_test

// Replica-set behavior of the router: hedged reads cancel the losing
// replica, the routing epoch compares snapshot sequence numbers (not
// strings), and the per-client rate limiter answers 429 with Retry-After.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/shard"
)

// counterValue scrapes one unlabeled counter off the router's exposition.
func counterValue(t *testing.T, rt *shard.Router, name string) float64 {
	t.Helper()
	var b strings.Builder
	rt.MetricsRegistry().WriteText(&b)
	return seriesValue(t, b.String(), name)
}

// seriesValue returns the value of one series in a metrics exposition, or 0
// when the series is absent.
func seriesValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", series, rest, err)
			}
			return v
		}
	}
	return 0
}

// noShardErrors fails the test when the router counted a transport failure
// against any replica or retained an error trace.
func noShardErrors(t *testing.T, rt *shard.Router) {
	t.Helper()
	var b strings.Builder
	rt.MetricsRegistry().WriteText(&b)
	if strings.Contains(b.String(), "paris_router_shard_errors_total{") {
		t.Errorf("an answered or canceled attempt counted as a transport failure:\n%s", b.String())
	}
	if traces := rt.Recorder().ErrorTraces(); len(traces) != 0 {
		t.Errorf("recorder retained %d error trace(s) for answered reads: %+v", len(traces), traces)
	}
}

// TestHedgedReadCancelsLoser: one group of two replicas, one of them slow
// on the read path. Reads landing on the slow replica — single GETs and
// batch sub-requests alike — must hedge to the fast one after the budget,
// win there, and cancel the slow attempt, seen from the slow replica's
// side as a canceled request context. The router canceled the loser, so
// the loser is no transport failure: no shard error series, and no error
// trace for the answered reads.
func TestHedgedReadCancelsLoser(t *testing.T) {
	ctx := context.Background()
	d := gen.Persons(gen.PersonsConfig{N: 40, Seed: 7})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{}).Run()
	snap := res.Snapshot()

	// Two plain parisd replicas of the same (full) slice. The slow one
	// stalls GET and POST /v1/sameas until the router cancels it or 500ms
	// pass; everything else (stats, snapshot polls, ingestion) runs at
	// speed.
	var canceled, canceledBatches atomic.Int64 // GET and POST losers
	newReplica := func(slow bool) (*client.Client, string) {
		srv, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if slow {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/sameas" {
					// net/http watches for the client hanging up only once
					// the request body is read to EOF, so buffer it first.
					body, err := io.ReadAll(r.Body)
					if err != nil {
						t.Error(err)
						return
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
					select {
					case <-r.Context().Done():
						if r.Method == http.MethodPost {
							canceledBatches.Add(1)
						} else {
							canceled.Add(1)
						}
						return
					case <-time.After(500 * time.Millisecond):
					}
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		peer, err := client.New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		return peer, ts.URL
	}
	slowPeer, slowURL := newReplica(true)
	fastPeer, fastURL := newReplica(false)

	id := diskstore.SnapshotID(1)
	if err := shard.PublishGroups(ctx, [][]*client.Client{{slowPeer, fastPeer}}, id, snap); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter([]string{slowURL + "," + fastURL},
		shard.WithLogf(t.Logf), shard.WithHedgeDelay(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if epoch, err := rt.Refresh(ctx); err != nil || epoch != id {
		t.Fatalf("Refresh = %q, %v; want %q", epoch, err, id)
	}

	// Round-robin spreads reads over both replicas, so several of these
	// start on the slow one and must be rescued by the hedge.
	key := d.Gold.Pairs()[0][0]
	for i := 0; i < 12; i++ {
		r := get(t, rts.URL, "/v1/sameas?kb=1&key="+url.QueryEscape(key))
		if r.code != http.StatusOK {
			t.Fatalf("read %d: %d %s", i, r.code, r.body)
		}
	}
	hedges := counterValue(t, rt, "paris_router_hedges_total")
	if hedges < 1 {
		t.Errorf("paris_router_hedges_total = %v, want >= 1", hedges)
	}
	wins := counterValue(t, rt, "paris_router_hedge_wins_total")
	if wins < 1 {
		t.Errorf("paris_router_hedge_wins_total = %v, want >= 1", wins)
	}
	if n := canceled.Load(); n < 1 {
		t.Errorf("slow replica saw %d canceled requests, want >= 1 (losers must be canceled)", n)
	}

	// Batches take the same race: their sub-requests landing on the slow
	// replica hedge, win on the fast one, and cancel the loser too.
	var keys []string
	for _, p := range d.Gold.Pairs()[:8] {
		keys = append(keys, p[0])
	}
	for i := 0; i < 12; i++ {
		r := post(t, rts.URL, "/v1/sameas", batchBody("1", keys))
		if r.code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, r.code, r.body)
		}
		var resp client.BatchSameAsResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Found != len(keys) {
			t.Fatalf("batch %d found %d of %d keys: %s", i, resp.Found, len(keys), r.body)
		}
	}
	if v := counterValue(t, rt, "paris_router_hedges_total"); v <= hedges {
		t.Errorf("paris_router_hedges_total = %v after the batches, want > %v", v, hedges)
	}
	if v := counterValue(t, rt, "paris_router_hedge_wins_total"); v <= wins {
		t.Errorf("paris_router_hedge_wins_total = %v after the batches, want > %v", v, wins)
	}
	if n := canceledBatches.Load(); n < 1 {
		t.Errorf("slow replica saw %d canceled batch requests, want >= 1", n)
	}
	noShardErrors(t, rt)
}

// TestFailedBatchCancelsSiblingsWithoutFailover: on a healthy 3x2 fleet,
// every group answers a bogus-kb batch with 400, and the first 400 cancels
// the sibling sub-batches still in flight. A canceled sibling must neither
// count as a transport failure nor fail over to the next replica on its
// dead context: after many such batches the failover counter reads 0, no
// shard error series exists, and no error trace is retained.
func TestFailedBatchCancelsSiblingsWithoutFailover(t *testing.T) {
	ctx := context.Background()
	quiet := func(string, ...any) {}
	groups, _, elements := newReplicaGroups(t, 3, 2, quiet)
	d := gen.Persons(gen.PersonsConfig{N: 40, Seed: 7})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	id := diskstore.SnapshotID(1)
	if err := shard.PublishGroups(ctx, groups, id, core.New(o1, o2, core.Config{}).Run().Snapshot()); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(elements, shard.WithLogf(quiet))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if epoch, err := rt.Refresh(ctx); err != nil || epoch != id {
		t.Fatalf("Refresh = %q, %v; want %q", epoch, err, id)
	}

	// 64 keys reach every group, so every batch fans out three ways.
	var keys []string
	for _, p := range d.Gold.Pairs() {
		keys = append(keys, p[0])
	}
	body := batchBody("bogus", keys[:64])
	for i := 0; i < 200; i++ {
		if r := post(t, rts.URL, "/v1/sameas", body); r.code != http.StatusBadRequest {
			t.Fatalf("batch %d: %d %s, want 400", i, r.code, r.body)
		}
	}
	if v := counterValue(t, rt, "paris_router_failovers_total"); v != 0 {
		t.Errorf("paris_router_failovers_total = %v on a healthy fleet, want 0", v)
	}
	noShardErrors(t, rt)
}

// TestRefreshCrossesEightDigitBoundary: the epoch must advance from
// snap-99999999 to snap-100000000 even though the latter is the smaller
// string — the router compares sequence numbers.
func TestRefreshCrossesEightDigitBoundary(t *testing.T) {
	ctx := context.Background()
	srv, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	peer, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter([]string{ts.URL}, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	snap := &core.ResultSnapshot{
		KB1: "a", KB2: "b",
		Instances: []core.SnapshotAssignment{{Key1: "<http://a/x>", Key2: "<http://b/y>", P: 1}},
	}
	if _, err := peer.PutSnapshot(ctx, diskstore.SnapshotID(99999999), snap); err != nil {
		t.Fatal(err)
	}
	if epoch, err := rt.Refresh(ctx); err != nil || epoch != "snap-99999999" {
		t.Fatalf("epoch = %q, %v; want snap-99999999", epoch, err)
	}
	if _, err := peer.PutSnapshot(ctx, diskstore.SnapshotID(100000000), snap); err != nil {
		t.Fatal(err)
	}
	if epoch, err := rt.Refresh(ctx); err != nil || epoch != "snap-100000000" {
		t.Fatalf("epoch across the boundary = %q, %v; want snap-100000000", epoch, err)
	}
}

// TestRateLimit429WithRetryAfter: past the per-client budget the router
// answers 429 with a Retry-After header, keyed by X-Forwarded-For when
// present, while health probes stay exempt.
func TestRateLimit429WithRetryAfter(t *testing.T) {
	srv, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	rt, err := shard.NewRouter([]string{ts.URL},
		shard.WithLogf(t.Logf), shard.WithRateLimit(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	// Burst 1: the first read spends the budget (503 — no epoch yet — but
	// it was admitted), the second is throttled.
	if r := get(t, rts.URL, "/v1/sameas?kb=1&key=x"); r.code != http.StatusServiceUnavailable {
		t.Fatalf("first read: %d %s", r.code, r.body)
	}
	resp, err := http.Get(rts.URL + "/v1/sameas?kb=1&key=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second read: %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if v := counterValue(t, rt, "paris_router_rate_limited_total"); v < 1 {
		t.Errorf("paris_router_rate_limited_total = %v, want >= 1", v)
	}

	// A different client (distinct X-Forwarded-For hop) has its own bucket.
	req, err := http.NewRequest(http.MethodGet, rts.URL+"/v1/sameas?kb=1&key=x", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Forwarded-For", "203.0.113.9, 10.0.0.1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forwarded client: %d, want 503 (admitted)", resp2.StatusCode)
	}

	// Probes and scrapes are exempt: a throttled client must still be able
	// to health-check the router.
	for i := 0; i < 3; i++ {
		if r := get(t, rts.URL, "/v1/healthz"); r.code != http.StatusOK {
			t.Fatalf("healthz %d: %d", i, r.code)
		}
	}
}

// TestSplitTopology pins the -shards syntax: ";" separates replica groups,
// a bare comma list is the legacy one-replica-per-shard topology.
func TestSplitTopology(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"http://a,http://b", []string{"http://a", "http://b"}},
		{"http://a0,http://a1;http://b0,http://b1", []string{"http://a0,http://a1", "http://b0,http://b1"}},
		{" http://a ; ; http://b0 , http://b1 ", []string{"http://a", "http://b0 , http://b1"}},
	} {
		got := shard.SplitTopology(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("SplitTopology(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SplitTopology(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}
