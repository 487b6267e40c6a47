package server

// Tests for the versioned /v1 HTTP surface: 405 method handling, the batch
// sameAs endpoint, snapshot pinning, and job cancellation through the
// context-aware core. The unversioned legacy routes (308 shims of the first
// release) are gone; /v1 is the only surface (see TestLegacyRoutesRemoved).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/gen"
)

// doJSON issues one request with an optional JSON body and decodes a 2xx
// response into out. It reports failures with t.Errorf and returns 0 for a
// request that got no response, so any goroutine may call it.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Error(err)
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Errorf("decoding %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode
}

// TestLegacyRoutesRemoved: the unversioned routes of the first release
// (which answered 308 for one migration release) are gone — a legacy client
// now gets 404, not a silent redirect.
func TestLegacyRoutesRemoved(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	for _, path := range []string{"/healthz", "/jobs", "/sameas?kb=1&key=x",
		"/relations", "/classes", "/snapshots", "/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404 (legacy routes removed)", path, resp.StatusCode)
		}
	}
}

// TestV1MethodNotAllowed: a wrong method on a known /v1 route answers 405
// with an Allow header naming the supported methods, not 404.
func TestV1MethodNotAllowed(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	cases := []struct{ method, path, wantAllow string }{
		{http.MethodPut, "/v1/sameas", "GET"},  // also POST
		{http.MethodDelete, "/v1/jobs", "GET"}, // also POST
		{http.MethodPost, "/v1/relations", "GET"},
		{http.MethodPut, "/v1/jobs/job-00000001", "GET"}, // also DELETE
		{http.MethodPost, "/v1/stats", "GET"},
		{http.MethodDelete, "/v1/healthz", "GET"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 405", c.method, c.path, resp.StatusCode)
			continue
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, c.wantAllow) {
			t.Errorf("%s %s: Allow = %q, want it to contain %q", c.method, c.path, allow, c.wantAllow)
		}
	}
}

// alignPersons submits a persons alignment through /v1 and waits for the
// snapshot.
func alignPersons(t *testing.T, ts string, dir string, n int) (Job, [][2]string) {
	t.Helper()
	d := writePersonsKB(t, dir, n)
	var j Job
	if code := doJSON(t, http.MethodPost, ts+"/v1/jobs", JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	}, &j); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	final := waitDone(t, ts, j.ID)
	if final.State != JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	return final, d.Gold.Pairs()
}

// TestBatchSameAs covers POST /v1/sameas: every gold key in one request,
// unknown keys answered with empty matches, normalized fallbacks flagged,
// and the request-validation failures.
func TestBatchSameAs(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, filepath.Join(dir, "state"), 1)
	defer srv.Close()
	defer ts.Close()

	// Before any snapshot: 503.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sameas",
		map[string]any{"kb": "1", "keys": []string{"x"}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("batch before snapshot: %d, want 503", code)
	}

	_, pairs := alignPersons(t, ts.URL, dir, 40)
	keys := make([]string, 0, len(pairs)+2)
	for _, p := range pairs {
		keys = append(keys, p[0])
	}
	keys = append(keys, "<http://nowhere/missing>")
	// An upper-cased bare IRI only resolves through the normalized path.
	bare := strings.ToUpper(strings.Trim(pairs[0][0], "<>"))
	keys = append(keys, bare)

	var resp struct {
		Snapshot string `json:"snapshot"`
		Found    int    `json:"found"`
		Results  []struct {
			Key        string  `json:"key"`
			Matches    []Match `json:"matches"`
			Normalized bool    `json:"normalized"`
		} `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sameas",
		map[string]any{"kb": "1", "keys": keys}, &resp); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if len(resp.Results) != len(keys) {
		t.Fatalf("results = %d, want %d (one per key, in order)", len(resp.Results), len(keys))
	}
	if resp.Found != len(pairs)+1 { // all gold keys + the normalized one
		t.Fatalf("found = %d, want %d", resp.Found, len(pairs)+1)
	}
	for i, p := range pairs {
		r := resp.Results[i]
		if r.Key != p[0] || len(r.Matches) != 1 || r.Matches[0].Key != p[1] {
			t.Fatalf("result[%d] = %+v, want %s -> %s", i, r, p[0], p[1])
		}
		if r.Normalized {
			t.Fatalf("exact key %s flagged normalized", p[0])
		}
	}
	missing := resp.Results[len(pairs)]
	if len(missing.Matches) != 0 || missing.Normalized {
		t.Fatalf("missing key result = %+v, want empty", missing)
	}
	normalized := resp.Results[len(pairs)+1]
	if len(normalized.Matches) != 1 || !normalized.Normalized || normalized.Matches[0].Key != pairs[0][1] {
		t.Fatalf("normalized result = %+v, want match %s", normalized, pairs[0][1])
	}

	// Validation failures.
	for name, body := range map[string]any{
		"no keys":  map[string]any{"kb": "1"},
		"bad kb":   map[string]any{"kb": "7", "keys": []string{"x"}},
		"too many": map[string]any{"kb": "1", "keys": make([]string, MaxBatchKeys+1)},
		"bad json": nil,
	} {
		var code int
		if name == "bad json" {
			resp, err := http.Post(ts.URL+"/v1/sameas", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			code = resp.StatusCode
		} else {
			code = doJSON(t, http.MethodPost, ts.URL+"/v1/sameas", body, nil)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
	}
}

// TestSnapshotPinning: after a second snapshot supersedes the first, reads
// pinned with ?snapshot= still answer from the superseded version, while
// unpinned reads follow the newest; unknown snapshot IDs are 404.
func TestSnapshotPinning(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, filepath.Join(dir, "state"), 1)
	defer srv.Close()
	defer ts.Close()

	first, pairs := alignPersons(t, ts.URL, filepath.Join(dir, "kb1"), 30)

	// Second snapshot from a different corpus (movies): its keys are
	// disjoint from the persons corpus, so the answers prove which
	// snapshot served a read.
	mdir := filepath.Join(dir, "kb2")
	md := gen.Movies(gen.MoviesConfig{Seed: 7, People: 60, Movies: 20})
	if err := md.WriteFiles(mdir); err != nil {
		t.Fatal(err)
	}
	var mj Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		KB1: filepath.Join(mdir, md.Name1+".nt"),
		KB2: filepath.Join(mdir, md.Name2+".nt"),
	}, &mj); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs (movies): %d", code)
	}
	second := waitDone(t, ts.URL, mj.ID)
	if second.State != JobDone {
		t.Fatalf("movies job failed: %s", second.Error)
	}
	pairs2 := md.Gold.Pairs()
	if first.Snapshot == second.Snapshot {
		t.Fatalf("expected two snapshot versions, got %s twice", first.Snapshot)
	}

	var snaps struct {
		Snapshots []SnapshotInfo `json:"snapshots"`
		Current   string         `json:"current"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/snapshots", nil, &snaps); code != http.StatusOK {
		t.Fatalf("snapshots: %d", code)
	}
	if snaps.Current != second.Snapshot || len(snaps.Snapshots) != 2 {
		t.Fatalf("snapshots = %+v, want current %s of 2", snaps, second.Snapshot)
	}
	// Cold snapshots carry no lineage but do carry their KB names.
	if info := snaps.Snapshots[1]; info.ID != second.Snapshot || info.Base != "" ||
		info.KB1 == "" || info.Instances == 0 {
		t.Fatalf("snapshot info = %+v, want cold metadata for %s", info, second.Snapshot)
	}

	// Unpinned and pinned-to-current reads serve the new snapshot.
	var sa struct {
		Snapshot string  `json:"snapshot"`
		Matches  []Match `json:"matches"`
	}
	url := fmt.Sprintf("%s/v1/sameas?kb=1&key=%s", ts.URL, queryEscape(pairs2[0][0]))
	if code := doJSON(t, http.MethodGet, url, nil, &sa); code != http.StatusOK || sa.Snapshot != second.Snapshot {
		t.Fatalf("unpinned read = %d from %s, want 200 from %s", code, sa.Snapshot, second.Snapshot)
	}

	// Pinned to the superseded snapshot, the old corpus still resolves.
	url = fmt.Sprintf("%s/v1/sameas?kb=1&key=%s&snapshot=%s", ts.URL, queryEscape(pairs[0][0]), first.Snapshot)
	if code := doJSON(t, http.MethodGet, url, nil, &sa); code != http.StatusOK {
		t.Fatalf("pinned read: %d, want 200", code)
	}
	if sa.Snapshot != first.Snapshot || len(sa.Matches) != 1 || sa.Matches[0].Key != pairs[0][1] {
		t.Fatalf("pinned read = %+v, want %s from %s", sa, pairs[0][1], first.Snapshot)
	}

	// The same key is gone from the current snapshot.
	url = fmt.Sprintf("%s/v1/sameas?kb=1&key=%s", ts.URL, queryEscape(pairs[0][0]))
	if code := doJSON(t, http.MethodGet, url, nil, nil); code != http.StatusNotFound {
		t.Fatalf("old key against current snapshot: %d, want 404", code)
	}

	// Pinning works on the score endpoints too.
	var rels struct {
		Snapshot  string `json:"snapshot"`
		Relations []any  `json:"relations"`
	}
	url = fmt.Sprintf("%s/v1/relations?snapshot=%s", ts.URL, first.Snapshot)
	if code := doJSON(t, http.MethodGet, url, nil, &rels); code != http.StatusOK ||
		rels.Snapshot != first.Snapshot || len(rels.Relations) == 0 {
		t.Fatalf("pinned relations = %d %+v", code, rels)
	}

	// Unknown snapshot: 404.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sameas?kb=1&key=x&snapshot=snap-bogus", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown snapshot: %d, want 404", code)
	}

	// Batch reads pin the same way.
	var batch struct {
		Snapshot string `json:"snapshot"`
		Found    int    `json:"found"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sameas?snapshot="+first.Snapshot,
		map[string]any{"kb": "1", "keys": []string{pairs[0][0]}}, &batch); code != http.StatusOK ||
		batch.Snapshot != first.Snapshot || batch.Found != 1 {
		t.Fatalf("pinned batch = %d %+v", code, batch)
	}
}

// cacheStampede runs call(0) … call(callers-1) concurrently, each meant to
// miss the same build-once cache entry at once. The hook holds each
// building caller until every caller has taken its cache entry, then runs
// beforeBuild. It returns how many callers built.
func cacheStampede(t *testing.T, srv *Server, callers int, beforeBuild func(), call func(r int)) int {
	t.Helper()
	var calls, built atomic.Int32
	all := make(chan struct{})
	srv.testCacheLookup = func(_ string, build bool) {
		if calls.Add(1) == int32(callers) {
			close(all)
		}
		if !build {
			return
		}
		built.Add(1)
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("only %d of %d callers reached the cache", calls.Load(), callers)
		}
		beforeBuild()
	}
	defer func() { srv.testCacheLookup = nil }()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			call(r)
		}()
	}
	close(start)
	wg.Wait()
	return int(built.Load())
}

// pinnedStampede starts `readers` concurrent indexFor calls for snapID at
// once and returns each reader's result and how many readers built.
func pinnedStampede(t *testing.T, srv *Server, snapID string, readers int, beforeBuild func()) (ixs []*index, codes []int, errs []error, builds int) {
	t.Helper()
	ixs, codes, errs = make([]*index, readers), make([]int, readers), make([]error, readers)
	builds = cacheStampede(t, srv, readers, beforeBuild, func(r int) {
		ixs[r], codes[r], errs[r] = srv.indexFor(snapID)
	})
	return ixs, codes, errs, builds
}

// TestPinnedIndexSingleFlight: 16 readers of a cold, non-current snapshot
// arrive together; exactly one loads and indexes it and all 16 get that
// index. A failed build reaches every waiter and is not cached.
func TestPinnedIndexSingleFlight(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	snap := func(key string) *core.ResultSnapshot {
		return &core.ResultSnapshot{KB1: "a", KB2: "b", Instances: []core.SnapshotAssignment{
			{Key1: "<a:" + key + ">", Key2: "<b:" + key + ">", P: 0.9},
		}}
	}
	first, err := srv.publish(snap("one"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.publish(snap("two")); err != nil {
		t.Fatal(err)
	}
	const readers = 16

	ixs, _, errs, builds := pinnedStampede(t, srv, first, readers, func() {})
	if builds != 1 {
		t.Fatalf("%d readers built the pinned index, want 1", builds)
	}
	for r := range readers {
		if errs[r] != nil || ixs[r] != ixs[0] || ixs[r].id != first {
			t.Fatalf("reader %d got (%p, %v), reader 0 got %p for %s", r, ixs[r], errs[r], ixs[0], first)
		}
	}
	if ix, _, err := srv.indexFor(first); err != nil || ix != ixs[0] {
		t.Fatalf("later pinned read got (%p, %v), want the cached %p", ix, err, ixs[0])
	}

	// Evict the entry, then retire the snapshot from the store while its
	// rebuild is held: every waiter sees the 404 and the failure is not
	// cached, so the next reader builds again.
	srv.mu.Lock()
	delete(srv.pinned, first)
	srv.mu.Unlock()
	_, codes, errs, builds := pinnedStampede(t, srv, first, readers, func() {
		if err := diskstore.DeleteSnapshot(srv.store, first); err != nil {
			t.Error(err)
		}
	})
	if builds != 1 {
		t.Fatalf("%d readers built the failing index, want 1", builds)
	}
	for r := range readers {
		if errs[r] == nil || codes[r] != http.StatusNotFound {
			t.Fatalf("reader %d: status %d, err %v; want 404", r, codes[r], errs[r])
		}
	}
	srv.mu.Lock()
	_, cached := srv.pinned[first]
	srv.mu.Unlock()
	if cached {
		t.Fatal("failed build left a pinned cache entry")
	}
	if _, _, _, builds := pinnedStampede(t, srv, first, 1, func() {}); builds != 1 {
		t.Fatalf("read after a failed build: %d builds, want 1", builds)
	}
}

// TestCancelRunningJob is the mid-fixpoint cancellation flow: a job
// canceled while running must stop, land in the failed state with a
// cancellation reason, and publish no snapshot.
func TestCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	d := writePersonsKB(t, dir, 30)
	srv, ts := newTestServer(t, filepath.Join(dir, "state"), 1)
	defer srv.Close()
	defer ts.Close()

	// Gate the worker after the running transition so the DELETE lands
	// deterministically while the job is running; the canceled context
	// then aborts the alignment as soon as the gate opens.
	release := make(chan struct{})
	srv.testBeforeAlign = func(string) { <-release }

	var j Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	}, &j); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	for i := 0; ; i++ {
		var cur Job
		if doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID, nil, &cur); cur.State == JobRunning {
			break
		}
		if i > 5000 {
			t.Fatal("job never reached running")
		}
		time.Sleep(time.Millisecond)
	}

	var canceled Job
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil, &canceled); code != http.StatusAccepted {
		t.Fatalf("DELETE running job: %d, want 202", code)
	}
	close(release)

	final := waitDone(t, ts.URL, j.ID)
	if final.State != JobFailed {
		t.Fatalf("canceled job state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "canceled") {
		t.Fatalf("canceled job error = %q, want a cancellation reason", final.Error)
	}

	// No snapshot was published.
	var snaps struct {
		Snapshots []SnapshotInfo `json:"snapshots"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/snapshots", nil, &snaps); code != http.StatusOK || len(snaps.Snapshots) != 0 {
		t.Fatalf("snapshots after canceled job = %v (%d), want none", snaps.Snapshots, code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sameas?kb=1&key=x", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("read after canceled job: %d, want 503", code)
	}

	// Canceling a terminal job: 409.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil, nil); code != http.StatusConflict {
		t.Fatalf("DELETE terminal job: %d, want 409", code)
	}
	// Canceling an unknown job: 404.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-99999999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d, want 404", code)
	}
}

// TestCloseContextCancelsRunningJob: when the shutdown grace period is
// already spent, CloseContext cancels the running job's context instead of
// waiting out the alignment; the job persists as failed with the shutdown
// cause and no snapshot exists.
func TestCloseContextCancelsRunningJob(t *testing.T) {
	dir := t.TempDir()
	d := writePersonsKB(t, dir, 30)
	state := filepath.Join(dir, "state")

	// canceled closes once cancelAll has run (the log line follows it),
	// making "release the gated worker" safely ordered after the job's
	// context is canceled.
	canceled := make(chan struct{})
	srv, err := New(Options{StateDir: state, Workers: 1, Logf: func(format string, args ...any) {
		if strings.Contains(format, "grace period") {
			close(canceled)
		}
		t.Logf(format, args...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	release := make(chan struct{})
	srv.testBeforeAlign = func(string) { <-release }
	j := postJob(t, ts.URL, JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	})
	for i := 0; ; i++ {
		if cur, ok := srv.jobs.get(j.ID); ok && cur.State == JobRunning {
			break
		}
		if i > 5000 {
			t.Fatal("job never reached running")
		}
		time.Sleep(time.Millisecond)
	}
	ts.Close()

	expired, cancel := context.WithCancel(context.Background())
	cancel() // the grace period is already spent
	closed := make(chan error, 1)
	go func() { closed <- srv.CloseContext(expired) }()
	<-canceled     // the running job's context is canceled...
	close(release) // ...so the alignment aborts as soon as it starts
	if err := <-closed; err != nil {
		t.Fatalf("CloseContext: %v", err)
	}

	srv2, ts2 := newTestServer(t, state, 1)
	defer srv2.Close()
	defer ts2.Close()
	var rec Job
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+j.ID, nil, &rec); code != http.StatusOK {
		t.Fatalf("job after restart: %d", code)
	}
	if rec.State != JobFailed || !strings.Contains(rec.Error, "shutting down") {
		t.Fatalf("job after shutdown-cancel = state %s error %q", rec.State, rec.Error)
	}
	var snaps struct {
		Snapshots []SnapshotInfo `json:"snapshots"`
	}
	if doJSON(t, http.MethodGet, ts2.URL+"/v1/snapshots", nil, &snaps); len(snaps.Snapshots) != 0 {
		t.Fatalf("snapshots after shutdown-canceled job = %v, want none", snaps.Snapshots)
	}
}

// TestCancelQueuedJob: a job canceled before a worker picks it up fails
// immediately, never runs, and its record survives a restart.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	d := writePersonsKB(t, dir, 20)
	state := filepath.Join(dir, "state")
	srv, ts := newTestServer(t, state, 1)

	release := make(chan struct{})
	srv.testBeforeAlign = func(string) { <-release }
	req := JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	}
	first := postJob(t, ts.URL, req)  // occupies the single worker
	queued := postJob(t, ts.URL, req) // stays queued

	var canceled Job
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, &canceled); code != http.StatusOK {
		t.Fatalf("DELETE queued job: %d, want 200", code)
	}
	if canceled.State != JobFailed || !strings.Contains(canceled.Error, "canceled") {
		t.Fatalf("canceled queued job = %+v", canceled)
	}

	close(release)
	if j := waitDone(t, ts.URL, first.ID); j.State != JobDone {
		t.Fatalf("first job = %+v, want done", j)
	}
	// The canceled job never produced a second snapshot.
	var snaps struct {
		Snapshots []SnapshotInfo `json:"snapshots"`
	}
	if doJSON(t, http.MethodGet, ts.URL+"/v1/snapshots", nil, &snaps); len(snaps.Snapshots) != 1 {
		t.Fatalf("snapshots = %v, want exactly the first job's", snaps.Snapshots)
	}

	// Restart: the canceled record was persisted.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, state, 1)
	defer srv2.Close()
	defer ts2.Close()
	var rec Job
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+queued.ID, nil, &rec); code != http.StatusOK {
		t.Fatalf("canceled job after restart: %d", code)
	}
	if rec.State != JobFailed || !strings.Contains(rec.Error, "canceled") {
		t.Fatalf("recovered canceled job = %+v", rec)
	}
}
