package shard_test

// Fleet observability differential: a 3-group x 2-replica fleet losing one
// replica per group must stay fully observable through the router. A
// scattered batch read traced end-to-end assembles into ONE tree — the
// router's fan-out spans carrying the surviving replicas' serving spans as
// children, every span tagged with its origin instance. The federated
// /v1/fleet/metrics serves merged instance-labeled families with the dead
// replicas as scrape failures (paris_fleet_up 0), not errors. And /v1/slo
// shows zero error-budget burn for the degraded-but-serving route families:
// the failovers the requests absorbed are retained for debugging but are
// not user-visible failures. The router's lookup counter moves by exactly
// the keys it routed (GETs, normalized misses, batch keys), and its
// federated series agree.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
)

func TestFleetObservabilityDegraded(t *testing.T) {
	ctx := context.Background()
	d := gen.Movies(gen.MoviesConfig{Seed: 23, People: 120, Movies: 40})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{}).Run()
	if len(res.Instances) == 0 {
		t.Fatal("alignment produced nothing")
	}
	snap := res.Snapshot()
	snap.CreatedAt = time.Now().UTC()

	// ---- 3 shard groups x 2 replicas behind the router. ----
	const nGroups, nReplicas = 3, 2
	groups := make([][]*client.Client, nGroups)
	servers := make([][]*httptest.Server, nGroups)
	var elements []string
	for i := 0; i < nGroups; i++ {
		var urls []string
		for j := 0; j < nReplicas; j++ {
			srv, err := server.New(server.Options{
				StateDir: t.TempDir(), ShardIndex: i, ShardCount: nGroups, Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); srv.Close() })
			peer, err := client.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			groups[i] = append(groups[i], peer)
			servers[i] = append(servers[i], ts)
			urls = append(urls, ts.URL)
		}
		elements = append(elements, strings.Join(urls, ","))
	}
	v1 := diskstore.SnapshotID(1)
	if err := shard.PublishGroups(ctx, groups, v1, snap); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(elements, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if epoch, err := rt.Refresh(ctx); err != nil || epoch != v1 {
		t.Fatalf("epoch = %q (err %v), want %q", epoch, err, v1)
	}

	pairs := d.Gold.Pairs()
	if len(pairs) == 0 {
		t.Fatal("empty gold standard")
	}
	keys := make([]string, 0, len(pairs))
	for _, p := range pairs {
		keys = append(keys, p[0])
	}

	// ---- Kill replica 1 of every group. ----
	for i := 0; i < nGroups; i++ {
		servers[i][1].CloseClientConnections()
		servers[i][1].Close()
	}

	// Degraded traffic: every read still answers 200 (failover absorbs the
	// dead replicas), and it seeds the SLO windows whose burn the fleet
	// report must later show as zero.
	lookupsBefore := counterValue(t, rt, "paris_router_lookups_total")
	statsBefore := routerStatsLookups(t, rts.URL)
	for _, p := range pairs {
		// A 404 is a served answer (the alignment has no entry), not an
		// outage: anything but 200/404 means the kill leaked to the client.
		if r := get(t, rts.URL, "/v1/sameas?kb=1&key="+url.QueryEscape(p[0])); r.code != http.StatusOK && r.code != http.StatusNotFound {
			t.Fatalf("degraded read %q = %d %s", p[0], r.code, r.body)
		}
	}
	// Normalized misses (an upper-cased key plus a suffix, so the exact and
	// the folded lookup both miss) and a 64-key batch scattered over every
	// group.
	const misses = 8
	for i := range misses {
		k := strings.ToUpper(keys[i%len(keys)]) + "/nope" + strconv.Itoa(i)
		if r := get(t, rts.URL, "/v1/sameas?kb=1&key="+url.QueryEscape(k)); r.code != http.StatusNotFound {
			t.Fatalf("degraded normalized miss %q = %d %s, want 404", k, r.code, r.body)
		}
	}
	batch := make([]string, 64)
	for i := range batch {
		batch[i] = keys[i%len(keys)]
	}
	if r := post(t, rts.URL, "/v1/sameas", batchBody("1", batch)); r.code != http.StatusOK {
		t.Fatalf("degraded batch read = %d %s", r.code, r.body)
	}
	issued := len(pairs) + misses + len(batch)
	if v := counterValue(t, rt, "paris_router_failovers_total"); v < 1 {
		t.Fatalf("paris_router_failovers_total = %v, want >= 1 (the kill was invisible)", v)
	}

	// ---- Cross-process trace stitching: a traced scattered batch read. ----
	tr := obs.NewTrace()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rts.URL+"/v1/sameas", strings.NewReader(batchBody("1", keys)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, tr.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read to EOF before fetching the trace: the router's root span ends
	// when its handler returns, and the response's last chunk is written
	// only after that, so an unread body can leave the span still open.
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced batch read = %d", resp.StatusCode)
	}
	issued += len(keys)

	// Machine side: GET /debug/traces/{trace} on the router is the stitched
	// union of every participant's span records.
	dumpRes := get(t, rts.URL, "/debug/traces/"+tr.TraceID)
	if dumpRes.code != http.StatusOK {
		t.Fatalf("stitched dump = %d %s", dumpRes.code, dumpRes.body)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(dumpRes.body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trace != tr.TraceID || dump.Instance != "router" {
		t.Errorf("dump identity %q/%q, want trace %q from the router", dump.Trace, dump.Instance, tr.TraceID)
	}
	instances := map[string]int{}
	for _, s := range dump.Spans {
		if s.Instance == "" {
			t.Errorf("span %s/%s carries no origin instance", s.Name, s.SpanID)
		}
		instances[s.Instance]++
	}
	for gi := 0; gi < nGroups; gi++ {
		if want := fmt.Sprintf("group%d/replica0", gi); instances[want] == 0 {
			t.Errorf("no spans from surviving replica %s (got %v)", want, instances)
		}
	}
	if instances["router"] < 1+nGroups {
		t.Errorf("router contributed %d spans, want the http root plus %d fan-outs", instances["router"], nGroups)
	}

	// The merged records assemble into a single tree: the router's http root
	// (parented on the client-minted span), its shard fan-out children, and
	// under each successful fan-out the shard-side serving span.
	trees := obs.AssembleTrees(dump.Spans)
	if len(trees) != 1 {
		t.Fatalf("stitched spans assemble into %d trees, want 1", len(trees))
	}
	root := trees[0]
	if root.Name != "http" || root.Instance != "router" || root.ParentID != tr.SpanID {
		t.Fatalf("root = %s@%s parent=%s, want the router's http span under client span %s",
			root.Name, root.Instance, root.ParentID, tr.SpanID)
	}
	served := map[string]bool{}
	for _, c := range root.Children {
		if c.Name != "shard" || c.Instance != "router" {
			continue
		}
		for _, cc := range c.Children {
			if cc.Name == "http" {
				served[cc.Instance] = true
			}
		}
	}
	for gi := 0; gi < nGroups; gi++ {
		if want := fmt.Sprintf("group%d/replica0", gi); !served[want] {
			t.Errorf("no fan-out span carries a serving child from %s (served by %v)", want, served)
		}
	}

	// Human side: the same trace through /debug/traces?fleet=1, with the
	// instance roster and the per-target fetch audit.
	listRes := get(t, rts.URL, "/debug/traces?fleet=1&limit=64")
	if listRes.code != http.StatusOK {
		t.Fatalf("fleet trace listing = %d %s", listRes.code, listRes.body)
	}
	var listing struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(listRes.body, &listing); err != nil {
		t.Fatal(err)
	}
	var view *obs.TraceView
	for i := range listing.Traces {
		if listing.Traces[i].TraceID == tr.TraceID && listing.Traces[i].Root.SpanID == root.SpanID {
			view = &listing.Traces[i]
			break
		}
	}
	if view == nil {
		t.Fatalf("traced batch read missing from the fleet listing (%d traces)", len(listing.Traces))
	}
	for gi := 0; gi < nGroups; gi++ {
		want := fmt.Sprintf("group%d/replica0", gi)
		found := false
		for _, in := range view.Instances {
			if in == want {
				found = true
			}
		}
		if !found {
			t.Errorf("fleet view instances %v missing %s", view.Instances, want)
		}
		fetched := false
		for _, f := range view.Fetches {
			if f.Instance == want && f.Error == "" && f.Spans >= 1 {
				fetched = true
			}
		}
		if !fetched {
			t.Errorf("fetch audit %+v has no successful fetch from %s", view.Fetches, want)
		}
	}

	// ---- Metrics federation: dead replicas are data, not errors. ----
	// The router counts every key it routed, batch keys and misses
	// included, and the federated view reports the same count.
	lookups := counterValue(t, rt, "paris_router_lookups_total")
	if got := lookups - lookupsBefore; got != float64(issued) {
		t.Errorf("paris_router_lookups_total rose by %v, want %d (keys issued)", got, issued)
	}
	if got := routerStatsLookups(t, rts.URL) - statsBefore; float64(got) != lookups-lookupsBefore {
		t.Errorf("router /v1/stats lookups rose by %d, want the counter's %v", got, lookups-lookupsBefore)
	}
	metRes := get(t, rts.URL, "/v1/fleet/metrics")
	if metRes.code != http.StatusOK {
		t.Fatalf("/v1/fleet/metrics = %d with half the fleet down, want 200", metRes.code)
	}
	exposition := string(metRes.body)
	for _, series := range []string{`paris_router_lookups_total{instance="router"}`, "fleet:paris_router_lookups_total"} {
		if got := seriesValue(t, exposition, series); got != lookups {
			t.Errorf("fleet exposition %s = %v, want the router's %v", series, got, lookups)
		}
	}
	wantLines := []string{
		`paris_fleet_up{instance="router"} 1`,
		`paris_router_lookups_total{instance="router"}`,
		`paris_lookups_total{instance="group0/replica0",group="0",replica="0"}`,
		"fleet:paris_lookups_total ",
		"fleet:paris_router_lookups_total ",
	}
	for gi := 0; gi < nGroups; gi++ {
		wantLines = append(wantLines,
			fmt.Sprintf(`paris_fleet_up{instance="group%d/replica0",group="%d",replica="0"} 1`, gi, gi),
			fmt.Sprintf(`paris_fleet_up{instance="group%d/replica1",group="%d",replica="1"} 0`, gi, gi),
		)
	}
	for _, want := range wantLines {
		if !strings.Contains(exposition, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}

	// ---- Fleet stats rollup. ----
	statsRes := get(t, rts.URL, "/v1/fleet/stats")
	if statsRes.code != http.StatusOK {
		t.Fatalf("/v1/fleet/stats = %d %s", statsRes.code, statsRes.body)
	}
	var fs obs.FleetStats
	if err := json.Unmarshal(statsRes.body, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Instances != nGroups*nReplicas || fs.ScrapeFailures != nGroups {
		t.Errorf("fleet stats %d instances with %d scrape failures, want %d and %d",
			fs.Instances, fs.ScrapeFailures, nGroups*nReplicas, nGroups)
	}
	if fs.Failovers < 1 {
		t.Errorf("fleet stats failovers_total = %d, want >= 1", fs.Failovers)
	}
	for _, row := range fs.Replicas {
		if row.Replica == 1 {
			if row.ScrapeOK || row.Error == "" {
				t.Errorf("dead replica %s rolled up as scrape_ok=%v error=%q", row.Instance, row.ScrapeOK, row.Error)
			}
			continue
		}
		if !row.ScrapeOK || row.Requests <= 0 || row.Lookups <= 0 {
			t.Errorf("surviving replica %s rolled up as %+v, want scrape_ok with traffic", row.Instance, row)
		}
	}

	// ---- SLO: the degraded-but-serving families burn no error budget. ----
	sloRes := get(t, rts.URL, "/v1/slo")
	if sloRes.code != http.StatusOK {
		t.Fatalf("/v1/slo = %d %s", sloRes.code, sloRes.body)
	}
	var local obs.SLOReport
	if err := json.Unmarshal(sloRes.body, &local); err != nil {
		t.Fatal(err)
	}
	if local.Instance != "router" {
		t.Errorf("local SLO instance %q, want router", local.Instance)
	}
	assertNoBurn := func(rep obs.SLOReport, who string) {
		t.Helper()
		for _, fam := range rep.Families {
			for _, ws := range fam.Windows {
				if ws.Errors != 0 || ws.ErrorBurnRate != 0 {
					t.Errorf("%s family %q window %s burned error budget: %+v", who, fam.Family, ws.Window, ws)
				}
			}
		}
	}
	assertNoBurn(local, "router")

	rc, err := client.New(rts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := rc.FleetSLO(ctx)
	if err != nil {
		t.Fatalf("FleetSLO: %v", err)
	}
	if fleet.Instance != "fleet" {
		t.Errorf("merged SLO instance %q, want fleet", fleet.Instance)
	}
	if len(fleet.Failures) != nGroups {
		t.Errorf("fleet SLO reached %d dead replicas, want %d failures: %+v", len(fleet.Failures), nGroups, fleet.Failures)
	}
	// Router + one surviving replica per group answered, each slice
	// attributed by topology coordinates.
	if len(fleet.Instances) != 1+nGroups {
		t.Errorf("fleet SLO merged %d instance reports, want %d", len(fleet.Instances), 1+nGroups)
	}
	names := map[string]bool{}
	for _, rep := range fleet.Instances {
		names[rep.Instance] = true
		assertNoBurn(rep, rep.Instance)
	}
	for gi := 0; gi < nGroups; gi++ {
		if want := fmt.Sprintf("group%d/replica0", gi); !names[want] {
			t.Errorf("fleet SLO instances %v missing %s", names, want)
		}
	}
	assertNoBurn(fleet.SLOReport, "fleet")
	var got *obs.SLOFamily
	for i := range fleet.Families {
		if fleet.Families[i].Family == "GET /v1/sameas" {
			got = &fleet.Families[i]
		}
	}
	if got == nil {
		t.Fatalf("merged SLO has no GET /v1/sameas family: %+v", fleet.Families)
	}
	// The degraded sweep hit the router once per pair and a surviving
	// replica once per pair; the merge must see both sides.
	if want := int64(2 * len(pairs)); got.Windows[0].Requests < want {
		t.Errorf("merged 5m window saw %d GET /v1/sameas requests, want >= %d", got.Windows[0].Requests, want)
	}
}

// routerStatsLookups reads the lookups field of the router's /v1/stats.
func routerStatsLookups(t *testing.T, base string) uint64 {
	t.Helper()
	r := get(t, base, "/v1/stats")
	if r.code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d %s", r.code, r.body)
	}
	var stats struct {
		Router struct {
			Lookups uint64 `json:"lookups"`
		} `json:"router"`
	}
	if err := json.Unmarshal(r.body, &stats); err != nil {
		t.Fatal(err)
	}
	return stats.Router.Lookups
}
