// Package client is the Go client for the parisd alignment service's /v1
// HTTP API (internal/server, cmd/parisd).
//
// Every method takes a context.Context and maps one /v1 endpoint:
//
//	c, _ := client.New("http://localhost:7171")
//	job, _ := c.SubmitJob(ctx, client.JobRequest{KB1: "a.nt", KB2: "b.nt"})
//	job, _ = c.WaitJob(ctx, job.ID, 0)                   // poll to terminal state
//	res, _ := c.SameAs(ctx, client.SameAsQuery{KB: "1", Key: "<http://a/x>"})
//	batch, _ := c.SameAsBatch(ctx, client.BatchSameAsQuery{KB: "1", Keys: keys})
//
// Reads accept a snapshot ID (SameAsQuery.Snapshot, ScoreQuery.Snapshot)
// to pin a specific published version for repeatable results while new
// alignments land. Server-reported failures come back as *Error carrying
// the HTTP status code and the server's message.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/server"
)

// TraceHeader is the request-tracing header every client call emits when
// its context carries a trace (see NewTrace). The service and the shard
// router log one span per hop under the same trace ID, so one request is
// greppable across the fleet's logs.
const TraceHeader = obs.TraceHeader

// NewTrace attaches a fresh trace to ctx and returns it along with the
// trace ID. Every client call made with the returned context sends the
// trace in the X-Paris-Trace header; servers adopt it, log their spans
// under it, and forward it on their own outbound hops (router → shard).
//
//	ctx, traceID := client.NewTrace(ctx)
//	res, err := c.SameAs(ctx, q)
//	// grep the fleet's logs for traceID
func NewTrace(ctx context.Context) (context.Context, string) {
	tr := obs.NewTrace()
	return obs.WithTrace(ctx, tr), tr.TraceID
}

// Wire types shared with the service, re-exported so callers need only
// this package. They are aliased from the implementation packages rather
// than the root paris facade, keeping the facade's extra surface out of
// client binaries.
type (
	// JobRequest is the body of POST /v1/jobs.
	JobRequest = server.JobRequest
	// DeltaRequest is the body of POST /v1/deltas: triple additions
	// against a published base snapshot, re-aligned incrementally.
	DeltaRequest = server.DeltaRequest
	// Job is the service's record of one alignment job.
	Job = server.Job
	// JobState is the lifecycle state of a job.
	JobState = server.JobState
	// Match is one direction-resolved sameAs answer.
	Match = server.Match
	// SnapshotInfo is the metadata of one snapshot version, including the
	// lineage (base version + delta digest) of incremental snapshots.
	SnapshotInfo = server.SnapshotInfo
	// JobEvent is one frame of a job's SSE progress stream (WatchJob).
	JobEvent = server.JobEvent
	// IngestProgress is the cumulative state of a streaming KB load,
	// carried on Job.Ingest and in "ingest" JobEvents: sent at most once
	// per MiB of input, plus once with each load's final totals.
	IngestProgress = server.IngestProgress
	// UploadRecord is the submission recorded on a KB ingest job.
	UploadRecord = server.UploadRecord
	// KBInfo is one entry of the uploaded-KB listing (KBs).
	KBInfo = server.KBInfo
	// SnapshotRelation is one directed sub-relation score by name.
	SnapshotRelation = core.SnapshotRelation
	// SnapshotClass is one directed subclass score by class key.
	SnapshotClass = core.SnapshotClass
	// QueryRequest is the body of POST /v1/query: a conjunctive query over
	// the aligned union KB of a snapshot.
	QueryRequest = server.QueryRequest
	// QueryResponse is the body of POST /v1/query. Each row binds the
	// response's Vars in order.
	QueryResponse = server.QueryResponse
	// QueryValue is one variable binding inside a query result row: the
	// keys of its sameAs cluster in both KBs, or a literal.
	QueryValue = query.Value
	// QueryStats carries one query's plan-cache, timing, and scan counters.
	QueryStats = query.Stats
	// ConvergenceReport is the body of GET /v1/jobs/{id}/convergence: the
	// per-iteration movement of a job's fixpoint.
	ConvergenceReport = server.ConvergenceReport

	// SLOReport is the body of GET /v1/slo: per-route-family error-rate
	// and latency-budget burn over the 5m/1h windows.
	SLOReport = obs.SLOReport

	// SLOFamily and SLOWindowStats are the report's nested records.
	SLOFamily      = obs.SLOFamily
	SLOWindowStats = obs.SLOWindowStats

	// FleetSLO is the router's GET /v1/slo?fleet=1 body: the fleet-wide
	// merge plus per-instance reports and scrape failures.
	FleetSLO = obs.FleetSLO

	// FleetStats is the router's GET /v1/fleet/stats body: router counters
	// plus one row per replica from the federated metrics scrape.
	FleetStats = obs.FleetStats

	// FleetReplicaStats is one replica's row in FleetStats.
	FleetReplicaStats = obs.FleetReplicaStats

	// ScrapeFailure is one unreachable target in a federated scrape.
	ScrapeFailure = obs.ScrapeFailure

	// TraceDump is the body of GET /debug/traces/{trace}: the raw span
	// records one process still holds for a trace ID.
	TraceDump = obs.TraceDump

	// SpanRecord is one finished span inside a TraceDump.
	SpanRecord = obs.SpanRecord
)

// Job lifecycle states, re-exported from the service.
const (
	JobQueued  = server.JobQueued
	JobRunning = server.JobRunning
	JobDone    = server.JobDone
	JobFailed  = server.JobFailed
)

// Job progress stream event types, re-exported from the service.
const (
	EventState     = server.EventState
	EventIteration = server.EventIteration
	EventIngest    = server.EventIngest
	EventDone      = server.EventDone
)

// Error is a non-2xx response from the service.
type Error struct {
	StatusCode int    // HTTP status
	Message    string // the server's error message
}

func (e *Error) Error() string {
	return fmt.Sprintf("paris server: %s (HTTP %d)", e.Message, e.StatusCode)
}

// IsNotFound reports whether err is a server Error with status 404 — a
// missing job, an unknown snapshot, or a key with no alignment.
func IsNotFound(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.StatusCode == http.StatusNotFound
}

// decodeError turns a non-2xx response body into a typed *Error: the
// server's {"error": ...} envelope when present, the raw body otherwise.
func decodeError(statusCode int, data []byte) *Error {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &Error{StatusCode: statusCode, Message: msg}
}

// Client talks to one parisd instance. It is safe for concurrent use.
type Client struct {
	base      string
	http      *http.Client
	snapLimit int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, timeouts, middleware).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithSnapshotLimit raises (or lowers) the GetSnapshot download bound,
// default 1 GiB. Match it to the server's Options.MaxSnapshotBytes when
// publishing deployments whose snapshots exceed the default.
func WithSnapshotLimit(bytes int64) Option {
	return func(c *Client) {
		if bytes > 0 {
			c.snapLimit = bytes
		}
	}
}

// New returns a client for the service at baseURL (for example
// "http://localhost:7171"). The URL must carry no path: the client owns
// the /v1 prefix, so one release of the client always speaks one version
// of the API.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: invalid base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	if u.Path != "" && u.Path != "/" {
		return nil, fmt.Errorf("client: base URL %q must not carry a path (the client adds /v1)", baseURL)
	}
	c := &Client{
		base:      strings.TrimSuffix(u.String(), "/"),
		http:      http.DefaultClient,
		snapLimit: maxSnapshotDownload,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Health checks GET /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil, nil)
}

// Ready probes readiness (GET /v1/readyz): nil once the service can answer
// reads — a parisd with a serving snapshot, a parisrouter with a routing
// epoch. Before that it returns an *Error with status 503, distinct from
// Health, which only says the process is up.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/readyz", nil, nil, nil)
}

// Convergence fetches a job's per-iteration fixpoint movement
// (GET /v1/jobs/{id}/convergence). Records is empty for jobs whose
// fixpoint did not run in the current server process.
func (c *Client) Convergence(ctx context.Context, id string) (ConvergenceReport, error) {
	var rep ConvergenceReport
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/convergence", nil, nil, &rep)
	return rep, err
}

// SubmitJob submits an alignment job (POST /v1/jobs) and returns its
// initial, queued record.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodPost, "/v1/jobs", nil, req, &j)
	return j, err
}

// Jobs lists every job the service knows (GET /v1/jobs), oldest first.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out struct {
		Jobs []Job `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, nil, &out)
	return out.Jobs, err
}

// Job fetches one job record with its per-iteration progress
// (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, &j)
	return j, err
}

// CancelJob cancels a job (DELETE /v1/jobs/{id}). A queued job comes back
// already failed; a running job comes back in its in-flight state and
// reaches failed within one fixpoint pass. Cancelling an already-terminal
// job returns an *Error with status 409.
func (c *Client) CancelJob(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil, &j)
	return j, err
}

// WaitJob polls a job until it reaches a terminal state (done or failed —
// a failed job is a successful wait; inspect Job.State) or the context
// ends. poll is the polling interval; 0 means 250ms.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return j, err
		}
		switch j.State {
		case JobDone, JobFailed:
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-t.C:
		}
	}
}

// SubmitDelta submits an incremental re-alignment job (POST /v1/deltas):
// the triples extend one side of the base snapshot's ontology pair and the
// fixpoint re-runs warm-started from that snapshot, publishing a new
// snapshot whose lineage records the base and the delta digest. An empty
// DeltaRequest.Base applies the delta to the currently served snapshot.
func (c *Client) SubmitDelta(ctx context.Context, req DeltaRequest) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodPost, "/v1/deltas", nil, req, &j)
	return j, err
}

// UploadKBRequest addresses one KB upload (POST /v1/kbs).
type UploadKBRequest struct {
	// Name is the KB's name on the server; jobs reference it as
	// "kb:<name>" (or by the committed path the ingest job reports).
	Name string
	// Format carries the parser-selecting extensions: ".nt" (default),
	// ".ntriples", optionally with a ".gz" suffix when the stream is
	// gzip-compressed.
	Format string
	// Offset resumes an interrupted upload: the server appends the body
	// at this byte offset, which must equal the spooled size (an
	// *UploadError reports the right one on mismatch). Zero starts over.
	Offset int64
	// AlignWith, when non-empty, chains an alignment job against this
	// committed KB (a name or "kb:<name>" reference) once the upload's
	// ingest job commits. The returned ingest Job carries the align job's
	// ID in Job.Next; if the ingest fails, the align job fails with it.
	AlignWith string
}

// UploadError is a failed upload whose spool survives on the server: retry
// with UploadKBRequest.Offset = Offset and only the remaining bytes.
type UploadError struct {
	StatusCode int
	Message    string
	Offset     int64
}

func (e *UploadError) Error() string {
	return fmt.Sprintf("paris server: %s (HTTP %d, resume at offset %d)", e.Message, e.StatusCode, e.Offset)
}

// UploadKB streams a (possibly gzipped) N-Triples dump from r to the server
// (POST /v1/kbs, chunked body) and returns the accepted ingest job: the
// server validates the dump through its streaming parallel pipeline —
// follow its progress, about once per MiB, with WatchJob or WaitJob — and
// commits it for use in later SubmitJob calls (Job.KB holds the committed
// path once done). An interrupted or refused upload keeps its spooled
// bytes server-side; the returned *UploadError carries the offset to
// resume from.
func (c *Client) UploadKB(ctx context.Context, req UploadKBRequest, r io.Reader) (Job, error) {
	var j Job
	v := url.Values{"name": {req.Name}}
	if req.Format != "" {
		v.Set("format", req.Format)
	}
	if req.Offset > 0 {
		v.Set("offset", strconv.FormatInt(req.Offset, 10))
	}
	if req.AlignWith != "" {
		v.Set("align-with", req.AlignWith)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/kbs?"+v.Encode(), r)
	if err != nil {
		return j, err
	}
	httpReq.Header.Set("Content-Type", "application/octet-stream")
	obs.Inject(ctx, httpReq.Header)
	resp, err := c.http.Do(httpReq)
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return j, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		e := decodeError(resp.StatusCode, data)
		var body struct {
			Offset *int64 `json:"offset"`
		}
		if json.Unmarshal(data, &body) == nil && body.Offset != nil {
			return j, &UploadError{StatusCode: e.StatusCode, Message: e.Message, Offset: *body.Offset}
		}
		return j, e
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return j, fmt.Errorf("client: decoding upload response: %w", err)
	}
	return j, nil
}

// KBs lists the server's uploaded knowledge bases (GET /v1/kbs): committed
// ones ready to align, and partial uploads with their resume offsets.
func (c *Client) KBs(ctx context.Context) ([]KBInfo, error) {
	var out struct {
		KBs []KBInfo `json:"kbs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/kbs", nil, nil, &out)
	return out.KBs, err
}

// WatchJob streams a job's progress over SSE (GET /v1/jobs/{id} with
// Accept: text/event-stream) until it reaches a terminal state, calling
// onEvent (may be nil) for every frame — "state" first, then "iteration"
// per fixpoint pass and "ingest" about once per MiB of each streaming load
// (and once with its final totals), and finally "done". It returns the
// terminal job record. Unlike WaitJob it needs no polling interval: events
// arrive as the server produces them.
func (c *Client) WatchJob(ctx context.Context, id string, onEvent func(JobEvent)) (Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return Job{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	obs.Inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return Job{}, decodeError(resp.StatusCode, data)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		// A server (or proxy) that cannot stream answers with the plain
		// JSON record; fall back to polling.
		var j Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			return Job{}, fmt.Errorf("client: decoding job: %w", err)
		}
		if j.State == JobDone || j.State == JobFailed {
			return j, nil
		}
		return c.WaitJob(ctx, id, 0)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var event string
	var last Job
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = "" // frame boundary; data lines already dispatched
		case strings.HasPrefix(line, ":"):
			// keep-alive comment
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var j Job
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &j); err != nil {
				return last, fmt.Errorf("client: decoding %q event: %w", event, err)
			}
			last = j
			if onEvent != nil {
				onEvent(JobEvent{Type: event, Job: j})
			}
			if event == EventDone {
				return j, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, fmt.Errorf("client: job event stream ended before %q: %w", EventDone, io.ErrUnexpectedEOF)
}

// SameAsQuery addresses one entity lookup.
type SameAsQuery struct {
	// KB selects the direction: "1" (or empty, or the KB display name)
	// resolves ontology-1 keys, "2" the reverse.
	KB string
	// Key is the entity key, with or without angle brackets.
	Key string
	// Snapshot pins a published snapshot ID; empty serves the newest.
	Snapshot string
}

// SameAsResult is the body of GET /v1/sameas.
type SameAsResult struct {
	Snapshot   string  `json:"snapshot"`
	KB         string  `json:"kb"`
	Key        string  `json:"key"`
	Matches    []Match `json:"matches"`
	Normalized bool    `json:"normalized,omitempty"`
}

// SameAs resolves one entity (GET /v1/sameas). A key with no alignment is
// an *Error with status 404 (see IsNotFound).
func (c *Client) SameAs(ctx context.Context, q SameAsQuery) (SameAsResult, error) {
	v := url.Values{"key": {q.Key}}
	if q.KB != "" {
		v.Set("kb", q.KB)
	}
	if q.Snapshot != "" {
		v.Set("snapshot", q.Snapshot)
	}
	var out SameAsResult
	err := c.do(ctx, http.MethodGet, "/v1/sameas", v, nil, &out)
	return out, err
}

// BatchSameAsQuery addresses one batch lookup.
type BatchSameAsQuery struct {
	KB       string
	Keys     []string
	Snapshot string
}

// BatchSameAsResult is one per-key answer inside a batch response; a key
// with no alignment has empty Matches.
type BatchSameAsResult struct {
	Key        string  `json:"key"`
	Matches    []Match `json:"matches,omitempty"`
	Normalized bool    `json:"normalized,omitempty"`
}

// BatchSameAsResponse is the body of POST /v1/sameas. Results align
// one-to-one with the request's keys; Found counts the resolved ones.
type BatchSameAsResponse struct {
	Snapshot string              `json:"snapshot"`
	KB       string              `json:"kb"`
	Found    int                 `json:"found"`
	Results  []BatchSameAsResult `json:"results"`
}

// SameAsBatch resolves many entities in one round-trip (POST /v1/sameas),
// amortizing HTTP overhead for bulk consumers. At most 10000 keys per call.
func (c *Client) SameAsBatch(ctx context.Context, q BatchSameAsQuery) (BatchSameAsResponse, error) {
	v := url.Values{}
	if q.Snapshot != "" {
		v.Set("snapshot", q.Snapshot)
	}
	body := struct {
		KB   string   `json:"kb"`
		Keys []string `json:"keys"`
	}{q.KB, q.Keys}
	var out BatchSameAsResponse
	err := c.do(ctx, http.MethodPost, "/v1/sameas", v, body, &out)
	return out, err
}

// ScoreQuery addresses the relations and classes endpoints.
type ScoreQuery struct {
	// Dir is "12" (default) or "21".
	Dir string
	// Min filters out scores below this probability.
	Min float64
	// Snapshot pins a published snapshot ID; empty serves the newest.
	Snapshot string
}

func (q ScoreQuery) values() url.Values {
	v := url.Values{}
	if q.Dir != "" {
		v.Set("dir", q.Dir)
	}
	if q.Min != 0 {
		v.Set("min", strconv.FormatFloat(q.Min, 'g', -1, 64))
	}
	if q.Snapshot != "" {
		v.Set("snapshot", q.Snapshot)
	}
	return v
}

// RelationsResult is the body of GET /v1/relations.
type RelationsResult struct {
	Snapshot  string             `json:"snapshot"`
	Dir       string             `json:"dir"`
	Relations []SnapshotRelation `json:"relations"`
}

// Relations fetches directed sub-relation scores (GET /v1/relations),
// descending by probability.
func (c *Client) Relations(ctx context.Context, q ScoreQuery) (RelationsResult, error) {
	var out RelationsResult
	err := c.do(ctx, http.MethodGet, "/v1/relations", q.values(), nil, &out)
	return out, err
}

// ClassesResult is the body of GET /v1/classes.
type ClassesResult struct {
	Snapshot string          `json:"snapshot"`
	Dir      string          `json:"dir"`
	Classes  []SnapshotClass `json:"classes"`
}

// Classes fetches directed subclass scores (GET /v1/classes), descending
// by probability.
func (c *Client) Classes(ctx context.Context, q ScoreQuery) (ClassesResult, error) {
	var out ClassesResult
	err := c.do(ctx, http.MethodGet, "/v1/classes", q.values(), nil, &out)
	return out, err
}

// SnapshotList is the body of GET /v1/snapshots: every persisted snapshot
// with its metadata and lineage, oldest first, and the ID currently served
// by default.
type SnapshotList struct {
	Snapshots []SnapshotInfo `json:"snapshots"`
	Current   string         `json:"current"`
}

// Snapshots lists the persisted snapshot versions (GET /v1/snapshots).
func (c *Client) Snapshots(ctx context.Context) (SnapshotList, error) {
	var out SnapshotList
	err := c.do(ctx, http.MethodGet, "/v1/snapshots", nil, nil, &out)
	return out, err
}

// maxSnapshotDownload is the default GetSnapshot body bound, matching the
// service's default ingestion bound; WithSnapshotLimit overrides it.
const maxSnapshotDownload = 1 << 30

// GetSnapshot fetches one persisted snapshot in its portable binary form
// (GET /v1/snapshots/{id}) — the export half of sharded publication: fetch
// a version off the aligner, split it, push the slices. An unknown ID is an
// *Error with status 404.
func (c *Client) GetSnapshot(ctx context.Context, id string) (*core.ResultSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/snapshots/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	obs.Inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the cap so truncation is detected and reported as
	// a size problem, not as the corrupt-snapshot error a silently cut-off
	// body would produce downstream.
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.snapLimit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > c.snapLimit {
		return nil, fmt.Errorf("client: snapshot %s exceeds the %d-byte download limit (raise it with WithSnapshotLimit)", id, c.snapLimit)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp.StatusCode, data)
	}
	snap := new(core.ResultSnapshot)
	if err := snap.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("client: decoding snapshot %s: %w", id, err)
	}
	return snap, nil
}

// PutSnapshot publishes a pre-computed snapshot under an explicit ID
// (PUT /v1/snapshots/{id}, binary body). The sharded publisher uses this to
// push per-shard slices under one common ID so pinned reads resolve
// consistently across shards; it equally serves offline batch runs whose
// results were computed outside the jobs API. Publishing an ID the server
// already holds returns an *Error with status 409.
func (c *Client) PutSnapshot(ctx context.Context, id string, snap *core.ResultSnapshot) (SnapshotInfo, error) {
	var info SnapshotInfo
	data, err := snap.MarshalBinary()
	if err != nil {
		return info, fmt.Errorf("client: encoding snapshot: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.base+"/v1/snapshots/"+url.PathEscape(id), bytes.NewReader(data))
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return info, c.roundTrip(req, &info)
}

// Query evaluates a conjunctive query over the aligned union KB
// (POST /v1/query): whitespace-separated triple patterns joined by ".",
// whose variables range over the snapshot's sameAs equivalence classes —
// so one query joins facts across both source KBs. Pin
// QueryRequest.Snapshot for repeatable pagination while new alignments
// publish; a parse error is an *Error with status 400 carrying the
// position.
//
//	res, err := c.Query(ctx, client.QueryRequest{
//		Query: `?d <http://y/directed> ?m . ?m <http://i/hasGenre> ?g`,
//	})
func (c *Client) Query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	var out QueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/query", nil, req, &out)
	return out, err
}

// Stats fetches the service statistics (GET /v1/stats) as loose JSON.
func (c *Client) Stats(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, nil, &out)
	return out, err
}

// SLO fetches the service's burn-rate report (GET /v1/slo): per route
// family, error-rate and latency-budget burn over the 5m and 1h windows.
func (c *Client) SLO(ctx context.Context) (SLOReport, error) {
	var rep SLOReport
	err := c.do(ctx, http.MethodGet, "/v1/slo", nil, nil, &rep)
	return rep, err
}

// FleetSLO fetches the fleet-wide burn-rate report from a parisrouter
// (GET /v1/slo?fleet=1): the merged view plus each instance's own report
// and any replicas whose report could not be fetched.
func (c *Client) FleetSLO(ctx context.Context) (FleetSLO, error) {
	var rep FleetSLO
	err := c.do(ctx, http.MethodGet, "/v1/slo", url.Values{"fleet": {"1"}}, nil, &rep)
	return rep, err
}

// FleetStats fetches a parisrouter's federated fleet rollup
// (GET /v1/fleet/stats): per-replica health, snapshot, heap, goroutines,
// and traffic counters, plus the router's hedge/failover totals.
func (c *Client) FleetStats(ctx context.Context) (FleetStats, error) {
	var fs FleetStats
	err := c.do(ctx, http.MethodGet, "/v1/fleet/stats", nil, nil, &fs)
	return fs, err
}

// TraceTree fetches the span records a process still holds for one trace
// ID (GET /debug/traces/{trace}). Against a parisrouter the dump is the
// stitched cross-process set: the router's own spans plus every
// participating replica's, each tagged with its origin instance. A trace
// the process no longer holds returns an *Error with status 404.
func (c *Client) TraceTree(ctx context.Context, traceID string) (TraceDump, error) {
	var td TraceDump
	err := c.do(ctx, http.MethodGet, "/debug/traces/"+url.PathEscape(traceID), nil, nil, &td)
	return td, err
}

// do performs one request. A non-2xx status decodes the server's
// {"error": ...} body into *Error; a 2xx body decodes into out when
// non-nil.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.roundTrip(req, out)
}

// roundTrip sends a prepared request and decodes the response like do.
func (c *Client) roundTrip(req *http.Request, out any) error {
	obs.Inject(req.Context(), req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", req.Method, req.URL.Path, err)
		}
	}
	return nil
}
