package server

// Tests for push-based KB ingestion (POST /v1/kbs): end-to-end upload →
// ingest job → commit → align via "kb:" references, resumable-error
// semantics with offset handshakes, typed validation failures, and the SSE
// progress stream on GET /v1/jobs/{id}.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/rdf"
)

// corpusDocs renders a persons dataset as two N-Triples documents.
func corpusDocs(t *testing.T, n int) (doc1, doc2 []byte, d *gen.Dataset) {
	t.Helper()
	d = gen.Persons(gen.PersonsConfig{N: n, Seed: 7})
	render := func(ts []rdf.Triple) []byte {
		var b bytes.Buffer
		if err := rdf.WriteNTriples(&b, ts); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	return render(d.Triples1), render(d.Triples2), d
}

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// postKB streams body to POST /v1/kbs and decodes the response JSON.
func postKB(t *testing.T, base, query string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/kbs?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding POST /v1/kbs response: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode
}

func TestUploadKBEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	doc1, doc2, d := corpusDocs(t, 40)

	// KB 1 pushed gzipped, KB 2 plain: both pipeline entry points.
	var j1 Job
	if code := postKB(t, ts.URL, "name=left&format=.nt.gz", gzipBytes(t, doc1), &j1); code != http.StatusAccepted {
		t.Fatalf("upload left: %d", code)
	}
	if j1.Kind != KindIngest || j1.Upload == nil || j1.Upload.Name != "left" {
		t.Fatalf("ingest job record: %+v", j1)
	}
	var j2 Job
	if code := postKB(t, ts.URL, "name=right&format=nt", doc2, &j2); code != http.StatusAccepted {
		t.Fatalf("upload right: %d", code)
	}

	fin1, fin2 := waitDone(t, ts.URL, j1.ID), waitDone(t, ts.URL, j2.ID)
	if fin1.State != JobDone || fin2.State != JobDone {
		t.Fatalf("ingest jobs: %s=%s (%s), %s=%s (%s)",
			fin1.ID, fin1.State, fin1.Error, fin2.ID, fin2.State, fin2.Error)
	}
	if fin1.KB == "" || fin2.KB == "" {
		t.Fatalf("committed KB paths missing: %q, %q", fin1.KB, fin2.KB)
	}
	if fin1.Ingest == nil || fin1.Ingest.Triples == 0 {
		t.Fatalf("ingest job carries no ingest progress: %+v", fin1.Ingest)
	}

	// The listing shows both as ready.
	var list struct {
		KBs []KBInfo `json:"kbs"`
	}
	if code := getJSON(t, ts.URL+"/v1/kbs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/kbs: %d", code)
	}
	if len(list.KBs) != 2 {
		t.Fatalf("KB listing: %+v", list.KBs)
	}
	for _, kb := range list.KBs {
		if kb.State != "ready" || kb.File == "" {
			t.Fatalf("KB not ready: %+v", kb)
		}
	}

	// Align the pushed KBs by kb: reference on one side and committed path
	// on the other, then check a gold pair resolves.
	var aj Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		JobRequest{KB1: "kb:left", KB2: fin2.KB}, &aj); code != http.StatusAccepted {
		t.Fatalf("submit align: %d", code)
	}
	if !strings.Contains(aj.Request.KB1, "left.nt.gz") {
		t.Fatalf("kb: reference not resolved at submit: %q", aj.Request.KB1)
	}
	final := waitDone(t, ts.URL, aj.ID)
	if final.State != JobDone {
		t.Fatalf("align job failed: %s", final.Error)
	}
	if final.Ingest == nil {
		t.Fatal("align job carries no ingest progress from its KB loads")
	}
	pairs := d.Gold.Pairs()
	if got, code := lookupKey(t, ts.URL, "1", pairs[0][0]); code != http.StatusOK || got != pairs[0][1] {
		t.Fatalf("sameas on pushed KBs: %d, %q (want %q)", code, got, pairs[0][1])
	}
}

// TestUploadKBResumable walks the documented recovery path: a gzip dump cut
// mid-stream uploads "successfully" as bytes (the connection did not fail)
// but fails validation with a typed offset error; the spool survives, the
// listing reports the resume offset, and re-POSTing just the remainder
// completes the KB without resending the prefix.
func TestUploadKBResumable(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	doc1, _, _ := corpusDocs(t, 30)
	zdoc := gzipBytes(t, doc1)
	half := len(zdoc) / 2

	var j1 Job
	if code := postKB(t, ts.URL, "name=big&format=.nt.gz", zdoc[:half], &j1); code != http.StatusAccepted {
		t.Fatalf("upload first half: %d", code)
	}
	fail := waitDone(t, ts.URL, j1.ID)
	if fail.State != JobFailed {
		t.Fatalf("truncated gzip validated: %+v", fail)
	}
	if !strings.Contains(fail.Error, "byte offset") {
		t.Fatalf("validation error does not name a byte offset: %q", fail.Error)
	}

	// The spool survives the failed validation and reports its offset.
	var list struct {
		KBs []KBInfo `json:"kbs"`
	}
	if code := getJSON(t, ts.URL+"/v1/kbs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/kbs: %d", code)
	}
	if len(list.KBs) != 1 || list.KBs[0].State != "partial" || list.KBs[0].Offset != int64(half) {
		t.Fatalf("partial listing: %+v", list.KBs)
	}

	// A wrong offset is refused with the right one.
	var conflict struct {
		Error  string `json:"error"`
		Offset int64  `json:"offset"`
	}
	if code := postKB(t, ts.URL, fmt.Sprintf("name=big&format=.nt.gz&offset=%d", half+7), zdoc[half:], &conflict); code != http.StatusConflict {
		t.Fatalf("mismatched offset: %d", code)
	}
	if conflict.Offset != int64(half) {
		t.Fatalf("conflict offset = %d, want %d", conflict.Offset, half)
	}

	// Resume with the remainder only.
	var j2 Job
	if code := postKB(t, ts.URL, fmt.Sprintf("name=big&format=.nt.gz&offset=%d", half), zdoc[half:], &j2); code != http.StatusAccepted {
		t.Fatalf("resume upload: %d", code)
	}
	done := waitDone(t, ts.URL, j2.ID)
	if done.State != JobDone {
		t.Fatalf("resumed ingest failed: %s", done.Error)
	}
	if done.Upload.Bytes != int64(len(zdoc)) {
		t.Fatalf("resumed upload bytes = %d, want %d", done.Upload.Bytes, len(zdoc))
	}
}

func TestUploadKBValidation(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	cases := []struct {
		query string
		want  int
	}{
		{"name=../evil&format=.nt", http.StatusBadRequest},
		{"name=.hidden&format=.nt", http.StatusBadRequest},
		{"name=", http.StatusBadRequest},
		{"name=ok&format=.ttl", http.StatusBadRequest}, // Turtle cannot block-split
		{"name=ok&format=.nt&offset=-3", http.StatusBadRequest},
		{"name=ok&format=.nt&offset=999", http.StatusConflict}, // nothing spooled
	}
	for _, c := range cases {
		if code := postKB(t, ts.URL, c.query, []byte("x"), nil); code != c.want {
			t.Errorf("POST /v1/kbs?%s: %d, want %d", c.query, code, c.want)
		}
	}

	// Garbage that parses to zero triples must not commit.
	var j Job
	if code := postKB(t, ts.URL, "name=junk&format=.nt", []byte("not a triple\nat all\n"), &j); code != http.StatusAccepted {
		t.Fatalf("junk upload: %d", code)
	}
	if fin := waitDone(t, ts.URL, j.ID); fin.State != JobFailed || !strings.Contains(fin.Error, "no triples") {
		t.Fatalf("junk KB: %+v", fin)
	}

	// Invalid UTF-8 in an IRI fails with a typed byte offset.
	bad := []byte("<http://x/a> <http://x/p> <http://x/b> .\n<http://x/\xff> <http://x/p> <http://x/c> .\n")
	if code := postKB(t, ts.URL, "name=badiri&format=.nt", bad, &j); code != http.StatusAccepted {
		t.Fatalf("bad-IRI upload: %d", code)
	}
	fin := waitDone(t, ts.URL, j.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "byte offset 41") {
		t.Fatalf("invalid-UTF-8 KB: state %s, error %q", fin.State, fin.Error)
	}
}

func TestUploadKBRejectedOnShard(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir(), ShardCount: 3, ShardIndex: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := postKB(t, ts.URL, "name=x&format=.nt", []byte("<a> <b> <c> .\n"), nil); code != http.StatusForbidden {
		t.Fatalf("shard accepted an upload: %d", code)
	}
}

// readSSE collects one job's SSE frames until the done event (or EOF).
// An optional onFirst callback fires once after the first frame arrives,
// so callers can hold a job until the subscription is live.
func readSSE(t *testing.T, base, id string, onFirst ...func()) []JobEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE GET: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var j Job
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &j); err != nil {
				t.Fatalf("decoding %q frame: %v", typ, err)
			}
			events = append(events, JobEvent{Type: typ, Job: j})
			if len(events) == 1 {
				for _, f := range onFirst {
					f()
				}
			}
			if typ == EventDone {
				return events
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestJobEventsSSE(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir, 1)
	defer srv.Close()
	defer ts.Close()
	writePersonsKB(t, dir, 60)

	// Hold the job at the running threshold so the watch subscribes before
	// the first iteration lands, then observe the full stream.
	release := make(chan struct{})
	srv.testBeforeAlign = func(string) { <-release }
	var j Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		KB1: filepath.Join(dir, "person1.nt"), KB2: filepath.Join(dir, "person2.nt"),
	}, &j); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Release the held job only once the watch delivered its first frame,
	// so the stream is guaranteed to observe the iterations.
	subscribed := make(chan struct{})
	evCh := make(chan []JobEvent, 1)
	go func() { evCh <- readSSE(t, ts.URL, j.ID, func() { close(subscribed) }) }()
	<-subscribed
	close(release)

	events := <-evCh
	if len(events) < 3 {
		t.Fatalf("too few SSE events: %+v", events)
	}
	if events[0].Type != EventState {
		t.Fatalf("first event %q, want state", events[0].Type)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type]++
	}
	if counts[EventIteration] == 0 {
		t.Errorf("no iteration events: %v", counts)
	}
	if counts[EventIngest] == 0 {
		t.Errorf("no ingest events from the KB loads: %v", counts)
	}
	if counts[EventDone] != 1 {
		t.Errorf("done events = %d, want 1", counts[EventDone])
	}
	last := events[len(events)-1]
	if last.Type != EventDone || last.Job.State != JobDone || last.Job.Snapshot == "" {
		t.Fatalf("terminal event: %+v", last)
	}

	// A watch on an already-terminal job yields state + done immediately.
	events = readSSE(t, ts.URL, j.ID)
	if len(events) != 2 || events[0].Type != EventState || events[1].Type != EventDone {
		t.Fatalf("terminal-job SSE: %+v", events)
	}

	// Unknown jobs 404 on the SSE path too.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/job-99999999", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("SSE for unknown job: %d", resp.StatusCode)
	}
}

func TestIngestJobSSEStreamsBlocks(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	doc1, _, _ := corpusDocs(t, 50)
	var j Job
	if code := postKB(t, ts.URL, "name=streamy&format=.nt", doc1, &j); code != http.StatusAccepted {
		t.Fatalf("upload: %d", code)
	}
	events := readSSE(t, ts.URL, j.ID)
	last := events[len(events)-1]
	if last.Type != EventDone || last.Job.State != JobDone {
		t.Fatalf("terminal event: %+v", last)
	}
	if last.Job.Ingest == nil || last.Job.Ingest.Triples == 0 {
		t.Fatalf("done event carries no ingest totals: %+v", last.Job.Ingest)
	}
}

// TestIngestEventsPacedPerMiB pins how often a job forwards streaming-load
// progress: at most once per MiB of input plus once where the load ended,
// although the pipeline reports every 64 KiB block. It runs an align job over
// two KB files, an upload and a failing upload, each over 1 MiB, with an SSE
// watch subscribed before the job starts.
func TestIngestEventsPacedPerMiB(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, filepath.Join(dir, "state"), 1)
	defer srv.Close()
	defer ts.Close()
	d := writePersonsKB(t, dir, 1000)

	// reached is the pipeline's progress after the last block it consumed
	// from doc: the totals, or where a failing document stopped. Run's
	// error is the upload job's to report, so it is dropped here.
	reached := func(doc []byte) ingest.Progress {
		t.Helper()
		var last ingest.Progress
		_, _ = ingest.Run(context.Background(), bytes.NewReader(doc), ingest.Options{
			Progress: func(p ingest.Progress) { last = p },
		}, func(rdf.Triple) error { return nil })
		if last.Bytes <= 1<<20 {
			t.Fatalf("document reaches %d bytes; the test needs more than 1 MiB", last.Bytes)
		}
		last.Elapsed = 0
		return last
	}
	// watch releases the held job once its SSE watch is live, and returns
	// the ingest events per phase and the terminal record.
	release := make(chan struct{}, 1)
	srv.testBeforeAlign = func(string) { <-release }
	watch := func(id string) (map[string][]ingest.Progress, Job) {
		t.Helper()
		events := readSSE(t, ts.URL, id, func() { release <- struct{}{} })
		perPhase := map[string][]ingest.Progress{}
		for _, ev := range events {
			if ev.Type == EventIngest {
				p := ev.Job.Ingest.Progress
				p.Elapsed = 0
				perPhase[ev.Job.Ingest.Phase] = append(perPhase[ev.Job.Ingest.Phase], p)
			}
		}
		return perPhase, events[len(events)-1].Job
	}
	// check bounds one load's events and requires the last to be where the
	// load ended.
	check := func(phase string, got []ingest.Progress, want ingest.Progress) {
		t.Helper()
		limit := int(want.Bytes>>20) + 1
		if len(got) == 0 || len(got) > limit {
			t.Fatalf("%s: %d ingest events for %d bytes, want 1..%d", phase, len(got), want.Bytes, limit)
		}
		if last := got[len(got)-1]; last != want {
			t.Fatalf("%s: last ingest event %+v, want %+v", phase, last, want)
		}
	}
	// checkFinal requires a job's terminal record to carry where its last
	// load ended.
	checkFinal := func(final Job, phase string, want ingest.Progress) {
		t.Helper()
		if final.Ingest == nil || final.Ingest.Phase != phase {
			t.Fatalf("job %s's final ingest %+v, want phase %s", final.ID, final.Ingest, phase)
		}
		p := final.Ingest.Progress
		p.Elapsed = 0
		if p != want {
			t.Fatalf("job %s's final ingest %+v, want %+v", final.ID, p, want)
		}
	}

	var want [2]ingest.Progress
	for i, name := range []string{d.Name1, d.Name2} {
		doc, err := os.ReadFile(filepath.Join(dir, name+".nt"))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reached(doc)
	}
	j := postJob(t, ts.URL, JobRequest{
		KB1:           filepath.Join(dir, d.Name1+".nt"),
		KB2:           filepath.Join(dir, d.Name2+".nt"),
		MaxIterations: 1,
	})
	events, final := watch(j.ID)
	if final.State != JobDone || len(events) != 2 {
		t.Fatalf("align job %s (%s) with ingest events for %v, want done with kb1 and kb2", final.State, final.Error, events)
	}
	check("kb1", events["kb1"], want[0])
	check("kb2", events["kb2"], want[1])
	checkFinal(final, "kb2", want[1])

	doc, _, _ := corpusDocs(t, 1000)
	// A bare carriage return in the last line fails the whole upload.
	broken := append(doc[:len(doc):len(doc)], "<http://x/a> <http://x/b> \"bare\rcr\" .\n"...)
	for _, u := range []struct {
		name  string
		body  []byte
		state JobState
	}{{"paced", doc, JobDone}, {"broken", broken, JobFailed}} {
		var up Job
		if code := postKB(t, ts.URL, "name="+u.name+"&format=.nt", u.body, &up); code != http.StatusAccepted {
			t.Fatalf("upload %s: %d", u.name, code)
		}
		events, final := watch(up.ID)
		if final.State != u.state {
			t.Fatalf("upload %s: %s (%s), want %s", u.name, final.State, final.Error, u.state)
		}
		check(u.name, events[u.name], reached(u.body))
		checkFinal(final, u.name, reached(u.body))
	}
}

// TestUploadKBAlignWithChaining: POST /v1/kbs?align-with=<kb> commits the
// upload and then runs an alignment against the named KB. The 202 response
// carries both job IDs (ID + Next); the align job waits on the ingest and
// publishes a snapshot that answers the gold pairs.
func TestUploadKBAlignWithChaining(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	doc1, doc2, d := corpusDocs(t, 40)

	// The second KB of the dataset commits first; the chained alignment
	// then runs with the freshly uploaded KB as KB1, matching the gold
	// pairs' orientation.
	var j1 Job
	if code := postKB(t, ts.URL, "name=right&format=.nt", doc2, &j1); code != http.StatusAccepted {
		t.Fatalf("upload right: %d", code)
	}
	if fin := waitDone(t, ts.URL, j1.ID); fin.State != JobDone {
		t.Fatalf("right ingest: %s (%s)", fin.State, fin.Error)
	}

	// Chaining against an unknown KB fails before anything is spooled.
	var bad struct {
		Error string `json:"error"`
	}
	if code := postKB(t, ts.URL, "name=left&format=.nt&align-with=nosuch", doc1, &bad); code != http.StatusBadRequest {
		t.Fatalf("align-with unknown KB: %d (%s)", code, bad.Error)
	}

	var j2 Job
	if code := postKB(t, ts.URL, "name=left&format=.nt&align-with=right", doc1, &j2); code != http.StatusAccepted {
		t.Fatalf("upload left: %d", code)
	}
	if j2.Next == "" {
		t.Fatalf("chained upload carries no align job ID: %+v", j2)
	}
	if fin := waitDone(t, ts.URL, j2.ID); fin.State != JobDone {
		t.Fatalf("left ingest: %s (%s)", fin.State, fin.Error)
	}
	align := waitDone(t, ts.URL, j2.Next)
	if align.State != JobDone || align.Snapshot == "" {
		t.Fatalf("chained align: state=%s snapshot=%q error=%q", align.State, align.Snapshot, align.Error)
	}
	if align.After != j2.ID {
		t.Fatalf("align job waits on %q, want %q", align.After, j2.ID)
	}

	// The published snapshot resolves the corpus gold pairs.
	pairs := d.Gold.Pairs()
	hits := 0
	for _, p := range pairs[:min(10, len(pairs))] {
		if got, code := lookupKey(t, ts.URL, "1", p[0]); code == http.StatusOK && got == p[1] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("chained alignment resolved none of the gold pairs")
	}
}

// TestUploadKBAlignWithFailedDependency: when the chained ingest fails, the
// align job fails too instead of running against a missing KB.
func TestUploadKBAlignWithFailedDependency(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	defer ts.Close()

	doc1, _, _ := corpusDocs(t, 20)
	var j1 Job
	if code := postKB(t, ts.URL, "name=base&format=.nt", doc1, &j1); code != http.StatusAccepted {
		t.Fatalf("upload base: %d", code)
	}
	if fin := waitDone(t, ts.URL, j1.ID); fin.State != JobDone {
		t.Fatalf("base ingest: %s (%s)", fin.State, fin.Error)
	}

	// Garbage bytes: the ingest job fails, and the chained align job must
	// fail as a dependency casualty, not run against a phantom KB.
	var j2 Job
	if code := postKB(t, ts.URL, "name=junk&format=.nt&align-with=base", []byte("this is not ntriples\n"), &j2); code != http.StatusAccepted {
		t.Fatalf("upload junk: %d", code)
	}
	if fin := waitDone(t, ts.URL, j2.ID); fin.State != JobFailed {
		t.Fatalf("junk ingest: %s, want failed", fin.State)
	}
	align := waitDone(t, ts.URL, j2.Next)
	if align.State != JobFailed || !strings.Contains(align.Error, "dependency job") {
		t.Fatalf("chained align after failed ingest: state=%s error=%q", align.State, align.Error)
	}
}
