package shard_test

// Differential test harness: the same movies corpus served by one
// single-process parisd and by a 3-shard deployment behind the
// scatter-gather router must be indistinguishable on the wire — every
// /v1/sameas answer (GET and POST, hits, misses, normalized fallbacks, and
// error paths) byte-identical, including ?snapshot=-pinned reads taken
// while a new version is being published shard by shard.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/shard"
)

// response is one captured HTTP exchange.
type response struct {
	code   int
	body   []byte
	header http.Header
}

func get(t *testing.T, base, path string) response {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, body, resp.Header}
}

func post(t *testing.T, base, path, body string) response {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, data, resp.Header}
}

// diffHeaders reports the response headers on which the two deployments
// disagree — the router relays the shard's headers verbatim, so everything
// but Date (each process stamps its own clock) must match.
func diffHeaders(want, got http.Header) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	delete(keys, "Date")
	var diffs []string
	for k := range keys {
		w := strings.Join(want.Values(k), ", ")
		g := strings.Join(got.Values(k), ", ")
		if w != g {
			diffs = append(diffs, fmt.Sprintf("%s: single %q vs sharded %q", k, w, g))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// compareGET asserts a byte-identical GET exchange — status, headers
// (excluding Date), and body — on both deployments and returns the shared
// response.
func compareGET(t *testing.T, singleURL, routerURL, path string) response {
	t.Helper()
	want := get(t, singleURL, path)
	got := get(t, routerURL, path)
	if want.code != got.code || !bytes.Equal(want.body, got.body) {
		t.Fatalf("GET %s diverges:\nsingle : %d %s\nsharded: %d %s",
			path, want.code, want.body, got.code, got.body)
	}
	if d := diffHeaders(want.header, got.header); d != "" {
		t.Fatalf("GET %s headers diverge: %s", path, d)
	}
	return want
}

// comparePOST asserts a byte-identical POST /v1/sameas exchange, headers
// included.
func comparePOST(t *testing.T, singleURL, routerURL, path, body string) response {
	t.Helper()
	want := post(t, singleURL, path, body)
	got := post(t, routerURL, path, body)
	if want.code != got.code || !bytes.Equal(want.body, got.body) {
		t.Fatalf("POST %s diverges:\nsingle : %d %s\nsharded: %d %s",
			path, want.code, want.body, got.code, got.body)
	}
	if d := diffHeaders(want.header, got.header); d != "" {
		t.Fatalf("POST %s headers diverge: %s", path, d)
	}
	return want
}

// newShardFleet starts n shard servers and a router in front of them,
// returning the shard clients (in shard-index order) and the router's base
// URL plus handle.
func newShardFleet(t *testing.T, n int) ([]*client.Client, *shard.Router, string) {
	t.Helper()
	var urls []string
	peers := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Options{
			StateDir: t.TempDir(), ShardIndex: i, ShardCount: n, Logf: t.Logf,
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
		urls = append(urls, ts.URL)
		peers = append(peers, peer)
	}
	rt, err := shard.NewRouter(urls, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return peers, rt, rts.URL
}

// newReplicaGroups starts nGroups shard groups of nReplicas servers each,
// returning the replicas' clients and test servers by group and the
// router's topology elements.
func newReplicaGroups(t *testing.T, nGroups, nReplicas int, logf func(string, ...any)) (
	groups [][]*client.Client, servers [][]*httptest.Server, elements []string) {
	t.Helper()
	groups = make([][]*client.Client, nGroups)
	servers = make([][]*httptest.Server, nGroups)
	for i := 0; i < nGroups; i++ {
		var urls []string
		for j := 0; j < nReplicas; j++ {
			srv, err := server.New(server.Options{
				StateDir: t.TempDir(), ShardIndex: i, ShardCount: nGroups, Logf: logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			// httptest.Server.Close is idempotent; a test that kills a
			// replica closes it twice (mid-test and here) without harm.
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
	return groups, servers, elements
}

func batchBody(kb string, keys []string) string {
	var sb strings.Builder
	sb.WriteString(`{"kb":` + fmt.Sprintf("%q", kb) + `,"keys":[`)
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(fmt.Sprintf("%q", k))
	}
	sb.WriteString(`]}`)
	return sb.String()
}

func TestDifferentialShardedVsSingle(t *testing.T) {
	ctx := context.Background()
	d := gen.Movies(gen.MoviesConfig{Seed: 7, People: 300, Movies: 100})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{}).Run()
	if len(res.Instances) == 0 {
		t.Fatal("alignment produced nothing")
	}

	// ---- Single-process reference deployment. ----
	single, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() { singleTS.Close(); single.Close() })
	singleClient, err := client.New(singleTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := single.PublishResult(res)
	if err != nil {
		t.Fatal(err)
	}

	// ---- 3-shard deployment. ----
	peers, rt, routerURL := newShardFleet(t, 3)

	// Before any publish the router answers like a snapshot-less parisd.
	if r := get(t, routerURL, "/v1/sameas?kb=1&key=x"); r.code != http.StatusServiceUnavailable ||
		!strings.Contains(string(r.body), "no completed alignment yet") {
		t.Fatalf("router before publish: %d %s", r.code, r.body)
	}

	// Shards refuse writes: they serve slices, they do not align.
	if r := post(t, strings.TrimSuffix(routerURL, "/"), "/v1/jobs", "{}"); r.code != http.StatusNotFound {
		// The router has no jobs surface at all.
		t.Fatalf("router POST /v1/jobs: %d %s", r.code, r.body)
	}

	// Two-phase publish of the same snapshot under the single process's ID.
	snap := res.Snapshot()
	if err := shard.Publish(ctx, peers, v1, snap); err != nil {
		t.Fatal(err)
	}
	epoch, err := rt.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != v1 {
		t.Fatalf("router epoch = %q, want %q", epoch, v1)
	}

	// ---- Byte-identical GET /v1/sameas for every gold entity. ----
	pairs := d.Gold.Pairs()
	if len(pairs) == 0 {
		t.Fatal("empty gold standard")
	}
	hits := 0
	for _, p := range pairs {
		if r := compareGET(t, singleTS.URL, routerURL,
			"/v1/sameas?kb=1&key="+url.QueryEscape(p[0])); r.code == http.StatusOK {
			hits++
		}
		compareGET(t, singleTS.URL, routerURL, "/v1/sameas?kb=2&key="+url.QueryEscape(p[1]))
	}
	if hits == 0 {
		t.Fatal("no gold entity resolved; the harness is vacuous")
	}
	t.Logf("compared %d gold pairs in both directions (%d forward hits)", len(pairs), hits)

	// Normalized, bare-IRI, error, and edge lookups stay identical too.
	bare := strings.Trim(pairs[0][0], "<>")
	for _, path := range []string{
		"/v1/sameas?kb=1&key=" + url.QueryEscape(bare),
		"/v1/sameas?kb=1&key=" + url.QueryEscape(strings.ToUpper(bare)),
		"/v1/sameas?kb=" + url.QueryEscape(d.Name1) + "&key=" + url.QueryEscape(pairs[0][0]),
		"/v1/sameas?kb=1&key=" + url.QueryEscape("<http://nowhere.example.org/x>"),
		"/v1/sameas?kb=1",                     // missing key parameter
		"/v1/sameas?kb=bogus&key=x",           // invalid direction
		"/v1/sameas?kb=1&key=x&snapshot=nope", // malformed snapshot pin
		"/v1/sameas?kb=1&key=" + url.QueryEscape(pairs[0][0]) + "&snapshot=snap-00000099", // unknown snapshot
		"/v1/relations?dir=12&min=0.1",
		"/v1/relations?dir=21",
		"/v1/classes?dir=12",
		"/v1/classes?dir=21&min=0.3",
	} {
		compareGET(t, singleTS.URL, routerURL, path)
	}

	// ---- Byte-identical POST /v1/sameas batches. ----
	fwd := make([]string, 0, len(pairs)+2)
	rev := make([]string, 0, len(pairs))
	for _, p := range pairs {
		fwd = append(fwd, p[0])
		rev = append(rev, p[1])
	}
	// Misses and normalized spellings interleaved mid-batch.
	fwd = append(fwd, "<http://nowhere.example.org/x>", strings.ToUpper(bare))
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas", batchBody("1", fwd))
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas", batchBody("2", rev))
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas", batchBody("bogus", fwd[:2]))
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas", `{"kb":"1","keys":[]}`)
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas", `{"kb":"1"`)
	// An unknown explicit pin must win over body problems (a single process
	// resolves the snapshot before reading the body) — and a known pin must
	// not mask them.
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas?snapshot=snap-00000099", `{"kb":"1","keys":[]}`)
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas?snapshot=snap-00000099", `{"kb":"1"`)
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas?snapshot=snap-00000099", batchBody("1", fwd[:2]))
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas?snapshot="+v1, `{"kb":"1","keys":[]}`)

	// ---- Pinned reads stay identical during a concurrent publish. ----
	probe := "/v1/sameas?kb=1&key=" + url.QueryEscape(pairs[0][0])
	pinnedProbe := probe + "&snapshot=" + v1
	batchPinned := "/v1/sameas?snapshot=" + v1
	v1Body := get(t, singleTS.URL, probe).body
	v1Batch := post(t, singleTS.URL, batchPinned, batchBody("1", fwd[:8])).body

	// Version 2 perturbs every probability, so v1-pinned and v2 answers
	// are distinguishable on the wire.
	snap2 := res.Snapshot()
	for i := range snap2.Instances {
		snap2.Instances[i].P = 0.25 + snap2.Instances[i].P/2
	}
	snap2.CreatedAt = time.Now().UTC() // one timestamp for all shards
	v2 := diskstore.SnapshotID(2)

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, base := range []string{singleTS.URL, routerURL} {
					r := get(t, base, pinnedProbe)
					if r.code != http.StatusOK || !bytes.Equal(r.body, v1Body) {
						errc <- fmt.Errorf("pinned read moved during publish on %s: %d %s", base, r.code, r.body)
						return
					}
					b := post(t, base, batchPinned, batchBody("1", fwd[:8]))
					if b.code != http.StatusOK || !bytes.Equal(b.body, v1Batch) {
						errc <- fmt.Errorf("pinned batch moved during publish on %s: %d %s", base, b.code, b.body)
						return
					}
				}
			}
		}()
	}

	// Publish v2 everywhere: first the single process, then shard by shard
	// with a torn-view check in the middle — the router must keep serving
	// the old epoch until the last shard acknowledges.
	if _, err := singleClient.PutSnapshot(ctx, v2, snap2); err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(len(peers))
	if err != nil {
		t.Fatal(err)
	}
	slices := snap2.Split(len(peers), part.Owner)
	for i, peer := range peers {
		if _, err := peer.PutSnapshot(ctx, v2, slices[i]); err != nil {
			t.Fatal(err)
		}
		if i < len(peers)-1 {
			// Mid-publish: some shards hold v2, the router's unpinned view
			// must still be the complete v1 everywhere — never a torn mix.
			if ep, err := rt.Refresh(ctx); err != nil || ep != v1 {
				t.Fatalf("epoch advanced to %q with %d/%d shards published (err %v)", ep, i+1, len(peers), err)
			}
			if r := get(t, routerURL, probe); r.code != http.StatusOK || !bytes.Equal(r.body, v1Body) {
				t.Fatalf("unpinned router read tore mid-publish: %d %s", r.code, r.body)
			}
		}
	}
	if ep, err := rt.Refresh(ctx); err != nil || ep != v2 {
		t.Fatalf("epoch after full publish = %q (err %v), want %q", ep, err, v2)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// After the flip: unpinned reads serve v2 and stay byte-identical, the
	// probe visibly changed, and v1 pins still resolve on both.
	v2Body := compareGET(t, singleTS.URL, routerURL, probe).body
	if bytes.Equal(v2Body, v1Body) {
		t.Fatal("v2 probe answer equals v1; the perturbation is invisible and the pin check proves nothing")
	}
	compareGET(t, singleTS.URL, routerURL, pinnedProbe)
	comparePOST(t, singleTS.URL, routerURL, batchPinned, batchBody("1", fwd))
	comparePOST(t, singleTS.URL, routerURL, "/v1/sameas", batchBody("1", fwd))
	for _, p := range pairs[:min(20, len(pairs))] {
		compareGET(t, singleTS.URL, routerURL, "/v1/sameas?kb=1&key="+url.QueryEscape(p[0]))
		compareGET(t, singleTS.URL, routerURL, "/v1/sameas?kb=1&key="+url.QueryEscape(p[0])+"&snapshot="+v1)
	}

	// The deployment-level snapshot listing agrees on versions and current.
	var snaps client.SnapshotList
	if err := singleClient.Health(ctx); err != nil {
		t.Fatal(err)
	}
	routerClient, err := client.New(routerURL)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err = routerClient.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snaps.Current != v2 || len(snaps.Snapshots) != 2 {
		t.Fatalf("router snapshots = %+v, want current %s over 2 versions", snaps, v2)
	}
}

// TestShardRefusesWrites pins the slimmed surface of parisd -shard i/N: job
// and delta submissions answer 403, while snapshot ingestion and lookups
// work.
func TestShardRefusesWrites(t *testing.T) {
	srv, err := server.New(server.Options{StateDir: t.TempDir(), ShardIndex: 1, ShardCount: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	for _, path := range []string{"/v1/jobs", "/v1/deltas"} {
		r := post(t, ts.URL, path, `{"kb1":"a.nt","kb2":"b.nt","kb":"1","ntriples":""}`)
		if r.code != http.StatusForbidden || !strings.Contains(string(r.body), "shard 1/3") {
			t.Errorf("POST %s on shard = %d %s, want 403 naming the shard", path, r.code, r.body)
		}
	}
}

// TestRouterRejectsEmptyTopology covers the router-side count guard.
func TestRouterRejectsEmptyTopology(t *testing.T) {
	if _, err := shard.NewRouter(nil); err == nil {
		t.Fatal("NewRouter with no shards succeeded")
	}
}

// TestRouterRejectsMisorderedShards: each shard self-reports its -shard i/N
// coordinates, and Refresh must refuse a -shards list whose order does not
// match — a silently misordered fleet would route most keys to shards that
// do not hold them.
func TestRouterRejectsMisorderedShards(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		srv, err := server.New(server.Options{
			StateDir: t.TempDir(), ShardIndex: i, ShardCount: 3, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls = append(urls, ts.URL)
	}
	swapped := []string{urls[1], urls[0], urls[2]}
	rt, err := shard.NewRouter(swapped, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Refresh(context.Background()); err == nil || !strings.Contains(err.Error(), "order mismatch") {
		t.Fatalf("Refresh over misordered shards: %v, want order-mismatch error", err)
	}
	// The publisher refuses too: pushing slices in the wrong order would
	// persist wrong data, not just misroute reads.
	var swappedPeers []*client.Client
	for _, u := range swapped {
		peer, err := client.New(u)
		if err != nil {
			t.Fatal(err)
		}
		swappedPeers = append(swappedPeers, peer)
	}
	err = shard.Publish(context.Background(), swappedPeers, "snap-00000001", &core.ResultSnapshot{KB1: "a", KB2: "b"})
	if err == nil || !strings.Contains(err.Error(), "order mismatch") {
		t.Fatalf("Publish over misordered shards: %v, want order-mismatch error", err)
	}
	ordered, err := shard.NewRouter(urls, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ordered.Refresh(context.Background()); err != nil {
		t.Fatalf("Refresh over ordered shards: %v", err)
	}
}

// TestInvalidShardOptions covers the server-side rejection of mismatched
// shard coordinates.
func TestInvalidShardOptions(t *testing.T) {
	for _, opt := range []server.Options{
		{ShardIndex: 3, ShardCount: 3},
		{ShardIndex: -1, ShardCount: 3},
		{ShardIndex: 1, ShardCount: 0},
		{ShardIndex: 0, ShardCount: -2},
	} {
		opt.StateDir = t.TempDir()
		if srv, err := server.New(opt); err == nil {
			srv.Close()
			t.Errorf("server.New with shard %d/%d succeeded, want error", opt.ShardIndex, opt.ShardCount)
		}
	}
}

// TestWriteSlicesOffline covers the diskstore publication path: slices
// written into shard state directories before the shard processes exist
// must be recovered at startup and served identically to a single process.
func TestWriteSlicesOffline(t *testing.T) {
	d := gen.Persons(gen.PersonsConfig{N: 40, Seed: 7})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{}).Run()

	single, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() { singleTS.Close(); single.Close() })
	id, err := single.PublishResult(res)
	if err != nil {
		t.Fatal(err)
	}

	// Offline phase: split the snapshot into three state directories.
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	if err := shard.WriteSlices(dirs, id, res.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Startup phase: each shard recovers its slice as the newest snapshot.
	var urls []string
	for i, dir := range dirs {
		srv, err := server.New(server.Options{StateDir: dir, ShardIndex: i, ShardCount: len(dirs), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls = append(urls, ts.URL)
	}
	rt, err := shard.NewRouter(urls, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if epoch, err := rt.Refresh(context.Background()); err != nil || epoch != id {
		t.Fatalf("epoch after recovery = %q (err %v), want %q", epoch, err, id)
	}

	pairs := d.Gold.Pairs()
	for _, p := range pairs {
		compareGET(t, singleTS.URL, rts.URL, "/v1/sameas?kb=1&key="+url.QueryEscape(p[0]))
		compareGET(t, singleTS.URL, rts.URL, "/v1/sameas?kb=2&key="+url.QueryEscape(p[1]))
	}
	keys := make([]string, 0, len(pairs))
	for _, p := range pairs {
		keys = append(keys, p[0])
	}
	comparePOST(t, singleTS.URL, rts.URL, "/v1/sameas", batchBody("1", keys))
}

// TestShardGCKeepsPreviousEpoch guards the publish-window guarantee under
// retention: a shard running with -retain 1 must keep the previous version
// after ingesting a new one, because the router keeps pinning unpinned
// reads to the old epoch until every shard has acknowledged the new.
func TestShardGCKeepsPreviousEpoch(t *testing.T) {
	srv, err := server.New(server.Options{
		StateDir: t.TempDir(), ShardIndex: 0, ShardCount: 1, Retain: 1, Logf: t.Logf,
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

	ctx := context.Background()
	snap := &core.ResultSnapshot{
		KB1: "a", KB2: "b",
		Instances: []core.SnapshotAssignment{{Key1: "<http://a/x>", Key2: "<http://b/y>", P: 1}},
	}
	// No reads happen between ingests: a pinned read would park an index in
	// the pinned cache and keep its snapshot alive through the GC (by
	// design, same as a single process), masking what this test is after.
	listIDs := func() []string {
		list, err := peer.Snapshots(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, info := range list.Snapshots {
			ids = append(ids, info.ID)
		}
		return ids
	}
	ingest := func(i uint64) {
		if _, err := peer.PutSnapshot(ctx, diskstore.SnapshotID(i), snap); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	ingest(1)
	ingest(2)
	// Retain 1 on a shard keeps the current version plus its predecessor —
	// the version the router may still pin every unpinned read to.
	if ids := listIDs(); len(ids) != 2 || ids[0] != "snap-00000001" || ids[1] != "snap-00000002" {
		t.Fatalf("after ingesting v2: snapshots = %v, want previous epoch kept", ids)
	}
	ingest(3)
	if ids := listIDs(); len(ids) != 2 || ids[0] != "snap-00000002" || ids[1] != "snap-00000003" {
		t.Fatalf("after ingesting v3: snapshots = %v, want [snap-00000002 snap-00000003]", ids)
	}
	// The kept predecessor serves pinned reads; the retired one is gone.
	if _, err := peer.SameAs(ctx, client.SameAsQuery{KB: "1", Key: "<http://a/x>", Snapshot: "snap-00000002"}); err != nil {
		t.Fatalf("previous epoch unreadable: %v", err)
	}
	if _, err := peer.SameAs(ctx, client.SameAsQuery{KB: "1", Key: "<http://a/x>", Snapshot: "snap-00000001"}); !client.IsNotFound(err) {
		t.Fatalf("retired snapshot still serves: %v, want 404", err)
	}
}

// TestDifferentialReplicatedDegraded runs the differential harness against
// a replicated fleet losing one replica per group mid-flight: 3 shard
// groups of 2 replicas each must serve the same bytes as a single process
// — headers included, no 502s — before the kill, with concurrent readers
// across it, after it, and for a new version published while the dead
// replicas are still down (the epoch advances on the survivors'
// acknowledgment alone).
func TestDifferentialReplicatedDegraded(t *testing.T) {
	ctx := context.Background()
	d := gen.Movies(gen.MoviesConfig{Seed: 11, People: 200, Movies: 80})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{}).Run()
	if len(res.Instances) == 0 {
		t.Fatal("alignment produced nothing")
	}
	snap := res.Snapshot()
	snap.CreatedAt = time.Now().UTC() // one timestamp for every copy

	// ---- Single-process reference deployment. ----
	single, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() { singleTS.Close(); single.Close() })
	singleClient, err := client.New(singleTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	v1 := diskstore.SnapshotID(1)
	if _, err := singleClient.PutSnapshot(ctx, v1, snap); err != nil {
		t.Fatal(err)
	}

	// ---- 3 shard groups x 2 replicas. ----
	const nGroups = 3
	groups, servers, elements := newReplicaGroups(t, nGroups, 2, t.Logf)
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
	fwd := make([]string, 0, len(pairs))
	for _, p := range pairs {
		fwd = append(fwd, p[0])
	}
	sweep := func(label string) {
		t.Helper()
		for _, p := range pairs {
			compareGET(t, singleTS.URL, rts.URL, "/v1/sameas?kb=1&key="+url.QueryEscape(p[0]))
			compareGET(t, singleTS.URL, rts.URL, "/v1/sameas?kb=2&key="+url.QueryEscape(p[1]))
		}
		comparePOST(t, singleTS.URL, rts.URL, "/v1/sameas", batchBody("1", fwd))
		t.Logf("%s sweep: %d pairs byte-identical in both directions", label, len(pairs))
	}
	sweep("full fleet")

	// ---- Concurrent pinned readers across the replica kill. ----
	pinnedProbe := "/v1/sameas?kb=1&key=" + url.QueryEscape(pairs[0][0]) + "&snapshot=" + v1
	v1Body := get(t, singleTS.URL, pinnedProbe).body
	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r := get(t, rts.URL, pinnedProbe); r.code != http.StatusOK || !bytes.Equal(r.body, v1Body) {
					errc <- fmt.Errorf("pinned read broke across the replica kill: %d %s", r.code, r.body)
					return
				}
			}
		}()
	}

	// Kill replica 1 of every group while the readers run: in-flight
	// requests abort mid-read, and every group is down to one replica.
	for i := 0; i < nGroups; i++ {
		servers[i][1].CloseClientConnections()
		servers[i][1].Close()
	}
	sweep("degraded fleet")
	if v := counterValue(t, rt, "paris_router_failovers_total"); v < 1 {
		t.Errorf("paris_router_failovers_total = %v, want >= 1 (reads must have failed over)", v)
	}

	// ---- Publish v2 while the dead replicas are still down. ----
	snap2 := res.Snapshot()
	for i := range snap2.Instances {
		snap2.Instances[i].P = 0.25 + snap2.Instances[i].P/2
	}
	snap2.CreatedAt = time.Now().UTC()
	v2 := diskstore.SnapshotID(2)
	if _, err := singleClient.PutSnapshot(ctx, v2, snap2); err != nil {
		t.Fatal(err)
	}
	err = shard.PublishGroups(ctx, groups, v2, snap2)
	if err == nil || !strings.Contains(err.Error(), "probing") || !strings.Contains(err.Error(), "replica 1") {
		t.Fatalf("PublishGroups with dead replicas = %v, want a probe error naming replica 1", err)
	}
	// The survivors acknowledged, so the epoch still advances.
	if epoch, err := rt.Refresh(ctx); err != nil || epoch != v2 {
		t.Fatalf("epoch after degraded publish = %q (err %v), want %q", epoch, err, v2)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Unpinned reads now serve v2 — visibly different from v1 and still
	// byte-identical — and v1 pins keep resolving on the survivors.
	probe := "/v1/sameas?kb=1&key=" + url.QueryEscape(pairs[0][0])
	if v2Body := compareGET(t, singleTS.URL, rts.URL, probe).body; bytes.Equal(v2Body, v1Body) {
		t.Fatal("v2 probe answer equals v1; the perturbation is invisible")
	}
	compareGET(t, singleTS.URL, rts.URL, pinnedProbe)
	sweep("degraded fleet on v2")
}
