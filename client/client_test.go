package client

// Round-trip tests: every /v1 endpoint exercised through the typed client
// against a real in-process alignment service.

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	paris "repro"
	"repro/internal/core"
	"repro/internal/gen"
)

// newService starts an alignment service with a generated persons corpus
// and returns a client for it plus the corpus.
func newService(t *testing.T, n int) (*Client, *gen.Dataset, string) {
	t.Helper()
	dir := t.TempDir()
	d := gen.Persons(gen.PersonsConfig{N: n, Seed: 11})
	if err := d.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	srv, err := paris.NewServer(paris.ServerOptions{StateDir: filepath.Join(dir, "state"), Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, d, dir
}

func TestNewValidation(t *testing.T) {
	if _, err := New("http://ok.example"); err != nil {
		t.Errorf("plain base URL rejected: %v", err)
	}
	if _, err := New("http://ok.example/"); err != nil {
		t.Errorf("trailing slash rejected: %v", err)
	}
	for _, bad := range []string{"://", "ftp://x", "http://x/v1", "http://x/api"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

// TestClientEndToEnd drives the whole surface: health, submit, list, get,
// wait, sameas (single + batch + pinned), relations, classes, snapshots,
// stats.
func TestClientEndToEnd(t *testing.T) {
	c, d, dir := newService(t, 40)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	// Reads before any snapshot: 503 as *Error.
	if _, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: "x"}); err == nil {
		t.Fatal("SameAs before snapshot succeeded")
	} else {
		var se *Error
		if !errors.As(err, &se) || se.StatusCode != 503 {
			t.Fatalf("SameAs before snapshot = %v, want *Error 503", err)
		}
	}

	job, err := c.SubmitJob(ctx, JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if job.ID == "" || job.State != paris.JobQueued {
		t.Fatalf("submitted job = %+v", job)
	}

	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("Jobs = %+v, %v", jobs, err)
	}

	final, err := c.WaitJob(ctx, job.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != paris.JobDone || final.Snapshot == "" || len(final.Iterations) == 0 {
		t.Fatalf("final job = %+v", final)
	}

	got, err := c.Job(ctx, job.ID)
	if err != nil || got.State != paris.JobDone {
		t.Fatalf("Job = %+v, %v", got, err)
	}
	if _, err := c.Job(ctx, "job-404"); !IsNotFound(err) {
		t.Fatalf("Job(unknown) = %v, want 404", err)
	}

	// Single lookups, both directions, exact and normalized.
	pairs := d.Gold.Pairs()
	for _, p := range pairs[:5] {
		res, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: p[0]})
		if err != nil || len(res.Matches) != 1 || res.Matches[0].Key != p[1] {
			t.Fatalf("SameAs(%s) = %+v, %v", p[0], res, err)
		}
		if res.Snapshot != final.Snapshot || res.Normalized {
			t.Fatalf("SameAs(%s) metadata = %+v", p[0], res)
		}
		back, err := c.SameAs(ctx, SameAsQuery{KB: "2", Key: p[1]})
		if err != nil || len(back.Matches) != 1 || back.Matches[0].Key != p[0] {
			t.Fatalf("reverse SameAs(%s) = %+v, %v", p[1], back, err)
		}
	}
	norm, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: strings.ToUpper(strings.Trim(pairs[0][0], "<>"))})
	if err != nil || !norm.Normalized || len(norm.Matches) != 1 {
		t.Fatalf("normalized SameAs = %+v, %v", norm, err)
	}
	if _, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: "<http://nowhere>"}); !IsNotFound(err) {
		t.Fatalf("missing key = %v, want 404", err)
	}

	// Batch lookup: all keys at once, including one miss.
	keys := make([]string, 0, len(pairs)+1)
	for _, p := range pairs {
		keys = append(keys, p[0])
	}
	keys = append(keys, "<http://nowhere>")
	batch, err := c.SameAsBatch(ctx, BatchSameAsQuery{KB: "1", Keys: keys})
	if err != nil {
		t.Fatalf("SameAsBatch: %v", err)
	}
	if batch.Found != len(pairs) || len(batch.Results) != len(keys) {
		t.Fatalf("batch found %d of %d results, want %d of %d", batch.Found, len(batch.Results), len(pairs), len(keys))
	}
	for i, p := range pairs {
		if r := batch.Results[i]; r.Key != p[0] || len(r.Matches) != 1 || r.Matches[0].Key != p[1] {
			t.Fatalf("batch result[%d] = %+v, want %s -> %s", i, r, p[0], p[1])
		}
	}
	if last := batch.Results[len(keys)-1]; len(last.Matches) != 0 {
		t.Fatalf("miss result = %+v, want no matches", last)
	}

	// Schema-level endpoints.
	rels, err := c.Relations(ctx, ScoreQuery{Dir: "12", Min: 0.1})
	if err != nil || len(rels.Relations) == 0 || rels.Snapshot != final.Snapshot {
		t.Fatalf("Relations = %+v, %v", rels, err)
	}
	for i := 1; i < len(rels.Relations); i++ {
		if rels.Relations[i].P > rels.Relations[i-1].P {
			t.Fatal("relations not sorted by descending probability")
		}
	}
	classes, err := c.Classes(ctx, ScoreQuery{})
	if err != nil || len(classes.Classes) == 0 {
		t.Fatalf("Classes = %+v, %v", classes, err)
	}

	snaps, err := c.Snapshots(ctx)
	if err != nil || snaps.Current != final.Snapshot || len(snaps.Snapshots) != 1 {
		t.Fatalf("Snapshots = %+v, %v", snaps, err)
	}

	stats, err := c.Stats(ctx)
	if err != nil || stats["snapshot"] == nil {
		t.Fatalf("Stats = %+v, %v", stats, err)
	}
}

// TestClientSnapshotPinning publishes two snapshots and reads the first
// through the Snapshot field of each read query.
func TestClientSnapshotPinning(t *testing.T) {
	c, d, dir := newService(t, 20)
	ctx := context.Background()
	req := JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	}
	j1, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := c.WaitJob(ctx, j1.ID, 0)
	if err != nil || f1.State != paris.JobDone {
		t.Fatalf("first job = %+v, %v", f1, err)
	}
	j2, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := c.WaitJob(ctx, j2.ID, 0)
	if err != nil || f2.State != paris.JobDone {
		t.Fatalf("second job = %+v, %v", f2, err)
	}

	pairs := d.Gold.Pairs()
	pinned, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: pairs[0][0], Snapshot: f1.Snapshot})
	if err != nil || pinned.Snapshot != f1.Snapshot {
		t.Fatalf("pinned SameAs = %+v, %v, want snapshot %s", pinned, err, f1.Snapshot)
	}
	rels, err := c.Relations(ctx, ScoreQuery{Snapshot: f1.Snapshot})
	if err != nil || rels.Snapshot != f1.Snapshot {
		t.Fatalf("pinned Relations = %+v, %v", rels, err)
	}
	if _, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: pairs[0][0], Snapshot: "snap-bogus"}); !IsNotFound(err) {
		t.Fatalf("bogus snapshot = %v, want 404", err)
	}
}

// TestClientCancelJob cancels a queued job through the client and verifies
// the 409 on a second cancel.
func TestClientCancelJob(t *testing.T) {
	c, d, dir := newService(t, 20)
	ctx := context.Background()
	req := JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	}
	// Occupy the single worker with a deliberately large alignment
	// (hundreds of milliseconds at least), so the small target job stays
	// queued while the cancel lands.
	bigDir := t.TempDir()
	big := gen.Persons(gen.PersonsConfig{N: 1500, Seed: 3})
	if err := big.WriteFiles(bigDir); err != nil {
		t.Fatal(err)
	}
	filler, err := c.SubmitJob(ctx, JobRequest{
		KB1: filepath.Join(bigDir, big.Name1+".nt"),
		KB2: filepath.Join(bigDir, big.Name2+".nt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := c.CancelJob(ctx, queued.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if canceled.State != paris.JobFailed {
		t.Fatalf("canceled queued job came back %s, want failed", canceled.State)
	}
	final, err := c.WaitJob(ctx, queued.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != paris.JobFailed || !strings.Contains(final.Error, "canceled") {
		t.Fatalf("canceled job = state %s error %q", final.State, final.Error)
	}

	var se *Error
	if _, err := c.CancelJob(ctx, queued.ID); !errors.As(err, &se) || se.StatusCode != 409 {
		t.Fatalf("second cancel = %v, want *Error 409", err)
	}
	if _, err := c.CancelJob(ctx, "job-404"); !IsNotFound(err) {
		t.Fatalf("cancel unknown = %v, want 404", err)
	}
	// Canceling the completed filler is the other 409 path.
	if f, err := c.WaitJob(ctx, filler.ID, 10*time.Millisecond); err != nil || f.State != paris.JobDone {
		t.Fatalf("filler = %+v, %v", f, err)
	}
	if _, err := c.CancelJob(ctx, filler.ID); !errors.As(err, &se) || se.StatusCode != 409 {
		t.Fatalf("cancel done job = %v, want *Error 409", err)
	}
}

// TestClientContextCancellation: a canceled context fails the request
// client-side.
func TestClientContextCancellation(t *testing.T) {
	c, _, _ := newService(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Health(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Health under canceled ctx = %v", err)
	}
	if _, err := c.WaitJob(ctx, "job-x", time.Millisecond); err == nil {
		t.Fatal("WaitJob under canceled ctx succeeded")
	}
}

// TestClientDeltaRealign round-trips POST /v1/deltas through the typed
// client and proves the result survives a daemon restart: the lineage chain
// is recovered, the delta-added pair still resolves, and a further delta
// after the restart (which forces the service to replay base KBs + persisted
// delta segments) still carries the earlier delta's alignment.
func TestClientDeltaRealign(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	d := gen.Persons(gen.PersonsConfig{N: 25, Seed: 11})
	if err := d.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	start := func() (*Client, *httptest.Server, *paris.Server) {
		srv, err := paris.NewServer(paris.ServerOptions{StateDir: state, Workers: 1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		c, err := New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		return c, ts, srv
	}
	c, ts, srv := start()
	ctx := context.Background()

	job, err := c.SubmitJob(ctx, JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = c.WaitJob(ctx, job.ID, 0); err != nil || job.State != JobDone {
		t.Fatalf("align job = %+v, %v", job, err)
	}

	const add1 = `<http://person1.example.org/person8888> <http://person1.example.org/soc_sec_id> "888-88-8888" .
<http://person1.example.org/person8888> <http://person1.example.org/has_email> "octavia@example.com" .
`
	const add2 = `<http://person2.example.org/hum8888> <http://person2.example.org/ssn> "888-88-8888" .
<http://person2.example.org/hum8888> <http://person2.example.org/emailAddress> "octavia@example.com" .
`
	d1, err := c.SubmitDelta(ctx, DeltaRequest{KB: "1", NTriples: add1})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Kind != "delta" || d1.Delta == nil || d1.Delta.Base != job.Snapshot {
		t.Fatalf("delta job = %+v, want kind delta based on %s", d1, job.Snapshot)
	}
	if d1, err = c.WaitJob(ctx, d1.ID, 0); err != nil || d1.State != JobDone {
		t.Fatalf("delta 1 = %+v, %v", d1, err)
	}
	d2, err := c.SubmitDelta(ctx, DeltaRequest{KB: "2", NTriples: add2, Base: d1.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if d2, err = c.WaitJob(ctx, d2.ID, 0); err != nil || d2.State != JobDone {
		t.Fatalf("delta 2 = %+v, %v", d2, err)
	}

	snaps, err := c.Snapshots(ctx)
	if err != nil || len(snaps.Snapshots) != 3 || snaps.Current != d2.Snapshot {
		t.Fatalf("Snapshots = %+v, %v", snaps, err)
	}
	if snaps.Snapshots[1].Base != job.Snapshot || snaps.Snapshots[2].Base != d1.Snapshot ||
		snaps.Snapshots[2].DeltaDigest == "" {
		t.Fatalf("lineage = %+v", snaps.Snapshots)
	}
	res, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: "<http://person1.example.org/person8888>"})
	if err != nil || len(res.Matches) != 1 || res.Matches[0].Key != "<http://person2.example.org/hum8888>" {
		t.Fatalf("delta pair = %+v, %v", res, err)
	}

	// Restart the daemon on the same state directory.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c, ts2, srv2 := start()
	defer func() { ts2.Close(); srv2.Close() }()

	snaps, err = c.Snapshots(ctx)
	if err != nil || len(snaps.Snapshots) != 3 || snaps.Current != d2.Snapshot ||
		snaps.Snapshots[2].Base != d1.Snapshot {
		t.Fatalf("Snapshots after restart = %+v, %v", snaps, err)
	}
	res, err = c.SameAs(ctx, SameAsQuery{KB: "1", Key: "<http://person1.example.org/person8888>"})
	if err != nil || len(res.Matches) != 1 || res.Matches[0].Key != "<http://person2.example.org/hum8888>" {
		t.Fatalf("delta pair after restart = %+v, %v", res, err)
	}

	// A post-restart delta forces base + segment replay; the pre-restart
	// delta pair must still be aligned in the snapshot it publishes.
	d3, err := c.SubmitDelta(ctx, DeltaRequest{
		KB:       "1",
		NTriples: `<http://person1.example.org/person7777> <http://person1.example.org/has_email> "nobody@example.com" .` + "\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if d3, err = c.WaitJob(ctx, d3.ID, 0); err != nil || d3.State != JobDone {
		t.Fatalf("post-restart delta = %+v, %v", d3, err)
	}
	res, err = c.SameAs(ctx, SameAsQuery{
		KB: "1", Key: "<http://person1.example.org/person8888>", Snapshot: d3.Snapshot,
	})
	if err != nil || len(res.Matches) != 1 || res.Matches[0].Key != "<http://person2.example.org/hum8888>" {
		t.Fatalf("delta pair in post-restart snapshot = %+v, %v", res, err)
	}
}

// TestClientPutSnapshot covers snapshot ingestion: publish a hand-built
// snapshot under an explicit ID, read it back through the lookup and
// listing endpoints, and hit the 409 (taken ID) and 400 (malformed ID)
// paths.
func TestClientPutSnapshot(t *testing.T) {
	c, _, _ := newService(t, 5)
	ctx := context.Background()

	snap := &core.ResultSnapshot{
		KB1: "left", KB2: "right",
		Instances: []core.SnapshotAssignment{
			{Key1: "<http://left/x>", Key2: "<http://right/y>", P: 0.9},
		},
	}
	info, err := c.PutSnapshot(ctx, "snap-00000005", snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "snap-00000005" || info.Instances != 1 || info.KB1 != "left" {
		t.Fatalf("ingested info = %+v", info)
	}
	res, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: "<http://left/x>"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != "snap-00000005" || len(res.Matches) != 1 || res.Matches[0].Key != "<http://right/y>" {
		t.Fatalf("lookup after ingest = %+v", res)
	}
	list, err := c.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.Current != "snap-00000005" || len(list.Snapshots) != 1 {
		t.Fatalf("snapshot list after ingest = %+v", list)
	}

	// Export round-trips the ingested snapshot byte for byte.
	back, err := c.GetSnapshot(ctx, "snap-00000005")
	if err != nil {
		t.Fatal(err)
	}
	if back.KB1 != "left" || len(back.Instances) != 1 || back.Instances[0].Key2 != "<http://right/y>" {
		t.Fatalf("exported snapshot = %+v", back)
	}

	var se *Error
	if _, err := c.PutSnapshot(ctx, "snap-00000005", snap); !errors.As(err, &se) || se.StatusCode != 409 {
		t.Fatalf("re-ingesting a taken ID: %v, want 409", err)
	}
	if _, err := c.PutSnapshot(ctx, "not-a-snapshot-id", snap); !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("malformed ID: %v, want 400", err)
	}
	if _, err := c.GetSnapshot(ctx, "snap-00000042"); !IsNotFound(err) {
		t.Fatalf("exporting unknown snapshot: %v, want 404", err)
	}
}

// TestClientUploadAndWatch drives the push-based ingestion surface:
// UploadKB streams a gzipped dump as a chunked body, WatchJob follows the
// ingest job's SSE progress to completion, the committed KB
// aligns via its kb: reference, and an interrupted upload resumes from the
// offset the *UploadError reports.
func TestClientUploadAndWatch(t *testing.T) {
	c, d, dir := newService(t, 40)
	ctx := context.Background()

	// Render KB1 as a gzipped stream fed through an io.Pipe, so the body
	// is genuinely chunked (no preset Content-Length).
	kb1, err := os.ReadFile(filepath.Join(dir, d.Name1+".nt"))
	if err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(kb1); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		_, err := io.Copy(pw, bytes.NewReader(zbuf.Bytes()))
		pw.CloseWithError(err)
	}()
	job, err := c.UploadKB(ctx, UploadKBRequest{Name: "pushed", Format: ".nt.gz"}, pr)
	if err != nil {
		t.Fatalf("UploadKB: %v", err)
	}
	if job.Kind != "ingest" || job.Upload == nil || job.Upload.Bytes != int64(zbuf.Len()) {
		t.Fatalf("upload job = %+v", job)
	}

	var events []JobEvent
	final, err := c.WatchJob(ctx, job.ID, func(ev JobEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("WatchJob: %v", err)
	}
	if final.State != JobDone || final.KB == "" {
		t.Fatalf("ingest job = %+v", final)
	}
	if len(events) < 2 || events[0].Type != EventState || events[len(events)-1].Type != EventDone {
		t.Fatalf("event stream shape: %+v", events)
	}
	sawIngest := false
	for _, ev := range events {
		if ev.Type == EventIngest {
			sawIngest = true
			break
		}
	}
	if !sawIngest && (final.Ingest == nil || final.Ingest.Triples == 0) {
		t.Fatalf("no ingest progress observed: %+v", events)
	}

	// The listing shows the committed KB; align it against the local file
	// via its kb: reference and watch that job too — it must stream both
	// ingest (KB loads) and iteration events.
	kbs, err := c.KBs(ctx)
	if err != nil || len(kbs) != 1 || kbs[0].Name != "pushed" || kbs[0].State != "ready" {
		t.Fatalf("KBs = %+v, %v", kbs, err)
	}
	alignJob, err := c.SubmitJob(ctx, JobRequest{
		KB1: "kb:pushed",
		KB2: filepath.Join(dir, d.Name2+".nt"),
	})
	if err != nil {
		t.Fatalf("SubmitJob(kb:pushed): %v", err)
	}
	var iters, ingests int
	alignFinal, err := c.WatchJob(ctx, alignJob.ID, func(ev JobEvent) {
		switch ev.Type {
		case EventIteration:
			iters++
		case EventIngest:
			ingests++
		}
	})
	if err != nil {
		t.Fatalf("WatchJob(align): %v", err)
	}
	if alignFinal.State != JobDone || alignFinal.Snapshot == "" {
		t.Fatalf("align job = %+v", alignFinal)
	}
	if iters == 0 && len(alignFinal.Iterations) == 0 {
		t.Fatal("no iteration progress observed")
	}
	pairs := d.Gold.Pairs()
	res, err := c.SameAs(ctx, SameAsQuery{KB: "1", Key: pairs[0][0]})
	if err != nil || len(res.Matches) != 1 || res.Matches[0].Key != pairs[0][1] {
		t.Fatalf("SameAs over pushed KB = %+v, %v", res, err)
	}

	// Watching an unknown job is a 404 *Error.
	if _, err := c.WatchJob(ctx, "job-404", nil); !IsNotFound(err) {
		t.Fatalf("WatchJob(unknown) = %v, want 404", err)
	}

	// Resumable errors: a truncated gzip upload fails validation but keeps
	// its spool; the offset handshake lets the client send only the rest.
	half := zbuf.Len() / 2
	job, err = c.UploadKB(ctx, UploadKBRequest{Name: "cut", Format: ".nt.gz"},
		bytes.NewReader(zbuf.Bytes()[:half]))
	if err != nil {
		t.Fatalf("UploadKB(half): %v", err)
	}
	if fail, err := c.WaitJob(ctx, job.ID, time.Millisecond); err != nil || fail.State != JobFailed {
		t.Fatalf("truncated upload job = %+v, %v", fail, err)
	}
	var ue *UploadError
	if _, err := c.UploadKB(ctx, UploadKBRequest{Name: "cut", Format: ".nt.gz", Offset: 3},
		bytes.NewReader(zbuf.Bytes()[3:])); !errors.As(err, &ue) {
		t.Fatalf("mismatched offset error = %v, want *UploadError", err)
	}
	if ue.Offset != int64(half) {
		t.Fatalf("resume offset = %d, want %d", ue.Offset, half)
	}
	job, err = c.UploadKB(ctx, UploadKBRequest{Name: "cut", Format: ".nt.gz", Offset: ue.Offset},
		bytes.NewReader(zbuf.Bytes()[half:]))
	if err != nil {
		t.Fatalf("UploadKB(resume): %v", err)
	}
	if done, err := c.WaitJob(ctx, job.ID, time.Millisecond); err != nil || done.State != JobDone {
		t.Fatalf("resumed upload job = %+v, %v", done, err)
	}
}

// TestClientQueryAndChainedUpload: push both KBs, chaining the alignment
// onto the second upload via AlignWith, then query the aligned union KB —
// including a cross-KB join neither source KB answers alone.
func TestClientQueryAndChainedUpload(t *testing.T) {
	c, d, dir := newService(t, 40)
	ctx := context.Background()

	// Queries before any snapshot are a typed 503.
	if _, err := c.Query(ctx, QueryRequest{Query: `?a <http://x/p> ?b`}); err == nil {
		t.Fatal("Query before any snapshot succeeded")
	} else {
		var se *Error
		if !errors.As(err, &se) || se.StatusCode != 503 {
			t.Fatalf("Query before snapshot: %v", err)
		}
	}

	upload := func(name, file, alignWith string) Job {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		job, err := c.UploadKB(ctx, UploadKBRequest{Name: name, Format: ".nt", AlignWith: alignWith}, f)
		if err != nil {
			t.Fatalf("UploadKB(%s): %v", name, err)
		}
		return job
	}
	j2 := upload("two", d.Name2+".nt", "")
	if fin, err := c.WaitJob(ctx, j2.ID, time.Millisecond); err != nil || fin.State != JobDone {
		t.Fatalf("ingest two: %+v, %v", fin, err)
	}
	// KB1 of the alignment is the chained upload, matching the gold pairs.
	j1 := upload("one", d.Name1+".nt", "two")
	if j1.Next == "" {
		t.Fatalf("chained upload carries no align job ID: %+v", j1)
	}
	align, err := c.WaitJob(ctx, j1.Next, time.Millisecond)
	if err != nil || align.State != JobDone || align.Snapshot == "" {
		t.Fatalf("chained align: %+v, %v", align, err)
	}

	// Cross-KB join: has_address exists only in ontology 1, zipCode only in
	// ontology 2 — rows exist only through the alignment.
	crossQ := `?p <http://person1.example.org/has_address> ?a . ?a <http://person2.example.org/zipCode> ?z`
	res, err := c.Query(ctx, QueryRequest{Query: crossQ})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Snapshot != align.Snapshot || len(res.Rows) == 0 {
		t.Fatalf("cross-KB query: %d rows from %s", len(res.Rows), res.Snapshot)
	}
	if res.Stats.CacheHit {
		t.Fatal("first query reported a plan-cache hit")
	}
	spanning := 0
	for _, row := range res.Rows {
		if len(row[1].KB1) > 0 && len(row[1].KB2) > 0 {
			spanning++
		}
	}
	if spanning == 0 {
		t.Fatalf("none of the %d rows joins through a sameAs cluster", len(res.Rows))
	}

	// The repeated shape hits the plan cache; a pinned snapshot answers
	// identically.
	again, err := c.Query(ctx, QueryRequest{Query: crossQ, Snapshot: align.Snapshot})
	if err != nil || !again.Stats.CacheHit || len(again.Rows) != len(res.Rows) {
		t.Fatalf("repeat query: hit=%v rows=%d, %v", again.Stats.CacheHit, len(again.Rows), err)
	}

	// A parse error is a typed 400 carrying the position.
	if _, err := c.Query(ctx, QueryRequest{Query: `?x <unterminated`}); err == nil {
		t.Fatal("parse error succeeded")
	} else {
		var se *Error
		if !errors.As(err, &se) || se.StatusCode != 400 {
			t.Fatalf("parse error: %v", err)
		}
	}
}

// TestClientReadyAndConvergence drives the introspection surface: Ready
// reports 503 until the first snapshot serves, then nil; Convergence
// returns the job's per-iteration fixpoint records.
func TestClientReadyAndConvergence(t *testing.T) {
	c, d, dir := newService(t, 40)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
	var se *Error
	if err := c.Ready(ctx); !errors.As(err, &se) || se.StatusCode != 503 {
		t.Fatalf("Ready before snapshot = %v, want *Error 503", err)
	}

	job, err := c.SubmitJob(ctx, JobRequest{
		KB1: filepath.Join(dir, d.Name1+".nt"),
		KB2: filepath.Join(dir, d.Name2+".nt"),
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if final, err := c.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil || final.State != paris.JobDone {
		t.Fatalf("WaitJob = %+v, %v", final, err)
	}

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready after snapshot: %v", err)
	}

	rep, err := c.Convergence(ctx, job.ID)
	if err != nil {
		t.Fatalf("Convergence: %v", err)
	}
	if rep.Job != job.ID || rep.State != paris.JobDone || len(rep.Records) == 0 {
		t.Fatalf("Convergence report = %+v", rep)
	}
	for i, r := range rep.Records {
		if r.Iteration != i+1 {
			t.Fatalf("records[%d].Iteration = %d, want monotone 1-based", i, r.Iteration)
		}
	}
	if _, err := c.Convergence(ctx, "job-404"); !IsNotFound(err) {
		t.Fatalf("Convergence(unknown) = %v, want 404", err)
	}
}
