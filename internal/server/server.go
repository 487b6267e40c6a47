// Package server is the PARIS alignment service: it accepts alignment jobs
// over HTTP/JSON, runs them asynchronously on a bounded worker pool, persists
// every completed result as a versioned snapshot through the diskstore (so
// restarts recover all completed alignments), and serves sameAs/relation/
// class lookups from an immutable in-memory index that is swapped in
// atomically per snapshot — reads take no locks, in the spirit of the
// disk-backed interactive serving layer of EMBANKS (arXiv:1104.4384) on top
// of the batch fixpoint of the paper.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/ingest"
	"repro/internal/literal"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/store"
)

// Options configures a Server. The zero value of every field has a usable
// default; StateDir is required.
type Options struct {
	// StateDir is the directory holding the snapshot store. It is created
	// if missing.
	StateDir string

	// Workers bounds the alignment worker pool (default 2): at most this
	// many jobs align concurrently, the rest wait in the queue.
	Workers int

	// QueueDepth bounds the pending-job queue (default 16); submissions
	// beyond it are rejected with 503.
	QueueDepth int

	// CacheSize is the capacity of the normalized-lookup LRU (default 4096).
	CacheSize int

	// Retain, when positive, bounds how many snapshots are kept: after
	// each publish, snapshots beyond the newest Retain are retired from
	// the store unless pinned by the lineage of a kept snapshot (so delta
	// chains stay replayable) or by an active ?snapshot= pinned index.
	// Zero keeps everything. In shard mode one extra version is kept so
	// the router's previous epoch survives a publish window; size Retain
	// to cover every version that may land between router refreshes — a
	// retired version the router still routes to would 404 unpinned reads.
	Retain int

	// MaxSnapshotBytes bounds one PUT /v1/snapshots/{id} body (default
	// 1 GiB). Raise it on shards of deployments whose per-shard slices
	// exceed the default; streaming slice transfer (no whole-snapshot
	// buffering) is a roadmap item.
	MaxSnapshotBytes int64

	// IngestWorkers is the parse parallelism of streaming KB loads — both
	// POST /v1/kbs upload validation and the KB loads at the start of
	// alignment jobs (default min(GOMAXPROCS, 8)).
	IngestWorkers int

	// MaxUploadBytes bounds one uploaded KB's total spooled size across
	// POST /v1/kbs requests (default 16 GiB) — the disk-side sibling of
	// MaxSnapshotBytes.
	MaxUploadBytes int64

	// SpoolTTL bounds how long an interrupted KB upload spool stays
	// resumable: at startup, *.partial spools idle longer than this are
	// removed (default 24h; negative disables the GC). In-flight spools
	// are never touched — the GC runs before the HTTP surface exists.
	SpoolTTL time.Duration

	// ShardCount, when positive, runs the server as one shard of an
	// N-way sharded deployment (parisd -shard i/N behind a parisrouter):
	// it serves lookups for its slice of the key space only, refuses
	// alignment and delta submissions (those belong on the aligner that
	// computes the full snapshot), and receives its per-shard snapshot
	// slices through PUT /v1/snapshots/{id}. ShardIndex is this shard's
	// 0-based position in [0, ShardCount).
	ShardCount int
	ShardIndex int

	// Logf, when non-nil, receives one line per significant event.
	Logf func(format string, args ...any)

	// DisableRecorder turns off the in-process flight recorder (span
	// collection, slow/error trace retention, convergence introspection).
	// Span log lines keep flowing through Logf. Exists for A/B overhead
	// measurement; production keeps the recorder on.
	DisableRecorder bool
}

// Bounds on the per-job numeric knobs accepted over HTTP.
const (
	maxJobWorkers    = 256
	maxJobIterations = 1000
	// maxPinnedIndexes bounds the cache of non-current snapshot indexes
	// kept alive for ?snapshot= pinned reads.
	maxPinnedIndexes = 4
)

// Bounds of one POST /v1/sameas batch request, exported so the shard
// router's pre-flight rejections can never diverge from what a shard would
// answer — the router mirrors these, not copies of their values.
const (
	// MaxBatchKeys bounds the keys of one batch lookup.
	MaxBatchKeys = 10000
	// MaxBatchBody bounds the request body of one batch lookup.
	MaxBatchBody = 8 << 20
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 4096
	}
	if o.MaxSnapshotBytes <= 0 {
		o.MaxSnapshotBytes = 1 << 30
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 16 << 30
	}
	if o.SpoolTTL == 0 {
		o.SpoolTTL = 24 * time.Hour
	}
	// IngestWorkers zero-defaults inside the ingest pipeline itself, so
	// the daemon, the store layer, and the session all share one
	// definition of "default".
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the alignment service. Create it with New, expose Handler over
// HTTP, and Close it to flush state.
type Server struct {
	opts  Options
	jobs  *jobManager
	cache *lruCache

	// idx is the serving index of the newest snapshot; nil before the
	// first snapshot exists. Readers load it exactly once per request and
	// never lock.
	idx atomic.Pointer[index]

	// mu serializes snapshot publication and store writes.
	mu      sync.Mutex
	store   *diskstore.Store
	unlock  func() error // releases the state-dir lock
	snapSeq uint64
	snaps   []SnapshotInfo // all snapshots with lineage metadata, oldest first

	// deltaMu serializes delta jobs: they mutate the cached ontologies in
	// place, so at most one re-alignment may touch them at a time. Guards
	// the onto* cache fields.
	deltaMu  sync.Mutex
	deltaDir string // delta segment directory under StateDir
	ontoID   string // snapshot the cached ontologies correspond to
	onto1    *store.Ontology
	onto2    *store.Ontology

	// pinned caches serving indexes of non-current snapshots requested via
	// ?snapshot= (repeatable reads), bounded by maxPinnedIndexes. engines
	// caches query engines over per-snapshot union KBs for POST /v1/query,
	// bounded by maxQueryEngines. Both are filled through buildOnce, so
	// concurrent callers of one snapshot build its value once. Guarded by
	// mu.
	pinned  map[string]*cacheEntry[*index]
	engines map[string]*cacheEntry[*query.Engine]

	// uploads marks KB upload names with a request currently streaming
	// into their spool. Guarded by mu.
	uploads map[string]bool

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the telemetry middleware
	reg     *obs.Registry
	met     *serverMetrics
	col     *obs.Collector // flight recorder; nil when Options.DisableRecorder
	started time.Time

	// testBeforeAlign, when non-nil, runs on the worker goroutine after a
	// job transitions to running and before alignment starts. Tests use it
	// to observe the running state deterministically.
	testBeforeAlign func(id string)

	// testCacheLookup, when non-nil, runs in buildOnce after a caller takes
	// its entry of the pinned-index or query-engine cache and before it
	// waits or builds; build is true for the one caller that builds.
	testCacheLookup func(id string, build bool)
}

// New opens (or creates) the state directory, recovers all persisted
// snapshots and job records, builds the serving index from the newest
// snapshot, and starts the worker pool.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.StateDir == "" {
		return nil, fmt.Errorf("server: Options.StateDir is required")
	}
	if opts.ShardCount < 0 || opts.ShardIndex < 0 ||
		(opts.ShardCount == 0 && opts.ShardIndex != 0) ||
		(opts.ShardCount > 0 && opts.ShardIndex >= opts.ShardCount) {
		return nil, fmt.Errorf("server: invalid shard %d/%d (index must be in [0, count))",
			opts.ShardIndex, opts.ShardCount)
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, err
	}
	unlock, err := lockStateDir(opts.StateDir)
	if err != nil {
		return nil, err
	}
	st, err := diskstore.Open(filepath.Join(opts.StateDir, "paris.db"))
	if err != nil {
		unlock()
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		opts:     opts,
		store:    st,
		unlock:   unlock,
		cache:    newLRU(opts.CacheSize),
		pinned:   make(map[string]*cacheEntry[*index]),
		engines:  make(map[string]*cacheEntry[*query.Engine]),
		deltaDir: filepath.Join(opts.StateDir, "deltas"),
		started:  time.Now().UTC(),
		reg:      reg,
		met:      newServerMetrics(reg),
	}
	if !opts.DisableRecorder {
		s.col = obs.NewCollector(obs.CollectorConfig{})
		s.met.http.AttachCollector(s.col)
	}
	if err := s.recoverState(); err != nil {
		st.Close()
		unlock()
		return nil, err
	}
	s.met.snapshots.Set(float64(len(s.snaps)))
	s.gcSpool()
	s.jobs = newJobManager(opts.Workers, opts.QueueDepth, s.runJob, s.persistJob, s.met.jobs)
	if err := s.recoverJobs(); err != nil {
		s.jobs.close()
		st.Close()
		unlock()
		return nil, err
	}
	s.buildMux()
	return s, nil
}

// SnapshotInfo is the served metadata of one snapshot version, including
// the lineage of incrementally derived snapshots.
type SnapshotInfo struct {
	ID        string    `json:"id"`
	KB1       string    `json:"kb1"`
	KB2       string    `json:"kb2"`
	Created   time.Time `json:"created,omitempty"`
	Instances int       `json:"instances"`

	// Base is the snapshot this one was warm-started from; empty for cold
	// (full alignment) snapshots. DeltaDigest identifies the applied delta
	// batch and DeltaAdded counts its statements.
	Base        string `json:"base,omitempty"`
	DeltaDigest string `json:"delta_digest,omitempty"`
	DeltaAdded  int    `json:"delta_added,omitempty"`
}

// snapshotNewer reports whether snapshot a is newer than b, by sequence
// number. Snapshot IDs must never be compared as strings: the snap-%08d
// padding overflows at seq 100,000,000, where the numerically newer ID is
// the lexicographically smaller one. IDs that do not parse order before
// every numbered snapshot, among themselves by string.
func snapshotNewer(a, b string) bool {
	sa, erra := diskstore.ParseSnapshotID(a)
	sb, errb := diskstore.ParseSnapshotID(b)
	switch {
	case erra == nil && errb == nil:
		return sa > sb
	case erra == nil:
		return true
	case errb == nil:
		return false
	default:
		return a > b
	}
}

func snapshotInfo(id string, snap *core.ResultSnapshot) SnapshotInfo {
	return SnapshotInfo{
		ID: id, KB1: snap.KB1, KB2: snap.KB2,
		Created: snap.CreatedAt, Instances: len(snap.Instances),
		Base: snap.Base, DeltaDigest: snap.DeltaDigest, DeltaAdded: snap.DeltaAdded,
	}
}

// recoverState reloads snapshots and terminal job records from the store.
// Lineage metadata comes from the small per-snapshot metadata records, so
// only the newest snapshot (the one to serve) is fully decoded; snapshots
// persisted before metadata records existed fall back to a full decode.
func (s *Server) recoverState() error {
	ids, err := diskstore.ListSnapshots(s.store)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if seq, err := diskstore.ParseSnapshotID(id); err == nil && seq > s.snapSeq {
			s.snapSeq = seq
		}
		info, err := s.loadSnapshotInfo(id)
		if err != nil {
			return err
		}
		s.snaps = append(s.snaps, info)
	}
	if len(ids) > 0 {
		// Newest by sequence number, never by string: "snap-100000000"
		// sorts below "snap-99999999" lexicographically, and serving the
		// wrong one here would silently regress the index on restart.
		newest := ids[len(ids)-1]
		for _, id := range ids {
			if snapshotNewer(id, newest) {
				newest = id
			}
		}
		snap, err := diskstore.LoadSnapshot(s.store, newest)
		if err != nil {
			return err
		}
		s.idx.Store(buildIndex(newest, snap))
		s.opts.Logf("server: recovered %d snapshot(s), serving %s (%s vs %s, %d instances)",
			len(ids), newest, snap.KB1, snap.KB2, len(snap.Instances))
	}
	return nil
}

// loadSnapshotInfo reads one snapshot's metadata record, decoding the full
// snapshot only when the record is missing (pre-metadata stores).
func (s *Server) loadSnapshotInfo(id string) (SnapshotInfo, error) {
	if data, err := diskstore.LoadSnapshotMeta(s.store, id); err == nil {
		var info SnapshotInfo
		if err := json.Unmarshal(data, &info); err == nil && info.ID == id {
			return info, nil
		}
		s.opts.Logf("server: corrupt metadata for %s, decoding snapshot", id)
	}
	snap, err := diskstore.LoadSnapshot(s.store, id)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return snapshotInfo(id, snap), nil
}

// recoverJobs restores persisted job history into the manager. Called from
// New after the manager exists.
func (s *Server) recoverJobs() error {
	records, err := diskstore.LoadJobRecords(s.store)
	if err != nil {
		return err
	}
	for id, data := range records {
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			s.opts.Logf("server: dropping corrupt job record %s: %v", id, err)
			continue
		}
		// A record whose ID does not round-trip through the job-%08d format
		// (foreign store, hand-edited state) must not recover: ignoring the
		// parse error would install it with seq 0, and a freshly issued
		// job-N could then collide with its map entry.
		var seq uint64
		if n, err := fmt.Sscanf(j.ID, "job-%d", &seq); n != 1 || err != nil ||
			fmt.Sprintf("job-%08d", seq) != j.ID {
			s.opts.Logf("server: skipping job record with unparseable id %q", id)
			continue
		}
		s.jobs.recover(j, seq)
	}
	return nil
}

// Handler returns the HTTP API handler: the /v1 mux wrapped in the
// telemetry middleware (per-route metrics plus request tracing — an
// X-Paris-Trace header injected by a client or the router is picked up here
// and surfaces in this process's span logs).
func (s *Server) Handler() http.Handler { return s.handler }

// MetricsRegistry exposes the server's metrics registry so the daemon can
// serve it on a separate -debug-addr listener (obs.DebugMux) and harnesses
// can scrape deltas in-process.
func (s *Server) MetricsRegistry() *obs.Registry { return s.reg }

// Recorder exposes the server's flight recorder so the daemon can mount
// GET /debug/traces on the -debug-addr listener. Nil when disabled.
func (s *Server) Recorder() *obs.Collector { return s.col }

// errShutdown is the cancellation cause for jobs aborted because the
// shutdown grace period ran out.
var errShutdown = errors.New("server shutting down")

// Close drains the worker pool and closes the state store. Queued jobs that
// have not started are dropped; running jobs complete and persist. Use
// CloseContext to bound how long running jobs may take.
func (s *Server) Close() error {
	return s.CloseContext(context.Background())
}

// CloseContext is Close with a shutdown budget: running jobs drain
// normally, but once ctx is done their contexts are canceled (cause:
// server shutting down), so each aborts within one fixpoint pass, persists
// as failed, and publishes nothing — a SIGTERM no longer waits out an
// hours-long alignment. CloseContext still returns only after every worker
// has stopped and the store is flushed.
func (s *Server) CloseContext(ctx context.Context) error {
	drained := make(chan struct{})
	go func() {
		s.jobs.close()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		s.jobs.cancelAll(errShutdown)
		s.opts.Logf("server: shutdown grace period over, canceled running jobs")
		<-drained
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.store.Close()
	if uerr := s.unlock(); err == nil {
		err = uerr
	}
	return err
}

// runJob executes one job end to end on a worker goroutine, dispatching on
// the job kind. ctx is canceled by DELETE /v1/jobs/{id}; a canceled job
// lands in the failed state with the cancellation cause and publishes no
// snapshot.
func (s *Server) runJob(ctx context.Context, id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		return
	}
	if s.testBeforeAlign != nil {
		s.testBeforeAlign(id)
	}
	// The job runs under its own root span (jobs have no inbound trace),
	// with the flight recorder attached so the ingest/fixpoint spans below
	// land in it and the whole tree is retained when the job errs.
	ctx = obs.WithCollector(ctx, s.col)
	ctx, jsp := obs.StartSpan(ctx, s.opts.Logf, "job")
	jsp.Set("job", id)
	jsp.Set("kind", metricKind(j.Kind))
	var snapID string
	var err error
	switch j.Kind {
	case KindDelta:
		s.opts.Logf("server: %s re-aligning delta against %s", id, j.Delta.Base)
		snapID, err = s.realign(ctx, id, *j.Delta)
	case KindIngest:
		s.opts.Logf("server: %s validating uploaded KB %q", id, j.Upload.Name)
		_, err = s.ingestKB(ctx, id, *j.Upload)
	default:
		s.opts.Logf("server: %s aligning %s vs %s", id, j.Request.KB1, j.Request.KB2)
		snapID, err = s.align(ctx, id, j.Request)
	}
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		// The failure is the cancellation itself (not a genuine error
		// that a racing DELETE would otherwise mask): surface the cause
		// ("canceled by client request") rather than the bare
		// context.Canceled the fixpoint returns.
		err = context.Cause(ctx)
	}
	jsp.Fail(err)
	jsp.End()
	final := s.jobs.finish(id, snapID, err)
	switch {
	case err != nil:
		s.opts.Logf("server: %s failed: %v", id, err)
	case j.Kind == KindIngest:
		s.opts.Logf("server: %s done, KB committed at %s", id, final.KB)
	default:
		s.opts.Logf("server: %s done in %d iterations, snapshot %s",
			id, len(final.Iterations), snapID)
	}
	s.persistJob(final)
}

// persistJob writes a terminal job record so history survives restarts. It
// also covers jobs dropped from the queue at shutdown (via jobManager's
// onDrop), so a 202-acknowledged job never silently vanishes.
func (s *Server) persistJob(j Job) {
	data, err := json.Marshal(j)
	if err != nil {
		return
	}
	s.mu.Lock()
	if err := diskstore.SaveJobRecord(s.store, j.ID, data); err != nil {
		s.opts.Logf("server: persisting job %s: %v", j.ID, err)
	}
	s.mu.Unlock()
}

// align loads the two knowledge bases, runs the fixpoint with per-iteration
// progress reporting, and publishes the result as a new snapshot. The
// context aborts both the streaming loads (between reads) and the fixpoint
// (between passes); a canceled job never publishes.
func (s *Server) align(ctx context.Context, id string, req JobRequest) (string, error) {
	// Jobs chained behind an ingest (POST /v1/kbs?align-with=) still carry
	// "kb:<name>" references: the upload had not committed at submit time,
	// so they resolve here, after the dependency finished. The resolved
	// paths are written back onto the record, keeping restart replay of
	// delta lineages rooted in real files.
	resolved := false
	for _, kb := range []*string{&req.KB1, &req.KB2} {
		p, err := s.resolveKBRef(*kb)
		if err != nil {
			return "", err
		}
		if p != *kb {
			*kb = p
			resolved = true
		}
	}
	if resolved {
		s.jobs.setRequestKBs(id, req.KB1, req.KB2)
	}
	norm, err := normalizer(req.Normalize)
	if err != nil {
		return "", err
	}
	lits := store.NewLiterals()
	o1, err := s.loadKB(ctx, id, "kb1", req.KB1, lits, norm)
	if err != nil {
		return "", err
	}
	o2, err := s.loadKB(ctx, id, "kb2", req.KB2, lits, norm)
	if err != nil {
		return "", err
	}
	cfg := core.Config{
		Theta:            req.Theta,
		MaxIterations:    req.MaxIterations,
		NegativeEvidence: req.NegativeEvidence,
		AllEqualities:    req.AllEqualities,
		Workers:          req.Workers,
		OnIteration:      s.onIteration(id),
	}
	a, err := core.NewChecked(o1, o2, cfg)
	if err != nil {
		return "", err
	}
	fctx, fsp := obs.StartSpan(ctx, s.opts.Logf, "fixpoint")
	res, err := a.RunContext(fctx)
	fsp.Set("iterations", len(a.Iterations()))
	fsp.Fail(err)
	fsp.End()
	if err != nil {
		return "", err
	}
	snapID, err := s.publish(res.Snapshot())
	if err == nil {
		// Keep the freshly built ontologies around: a delta job against
		// this snapshot can then re-align without reloading the KBs.
		s.cacheOntologies(snapID, o1, o2)
	}
	return snapID, err
}

// cacheOntologies remembers the ontology pair a snapshot was computed from,
// the warm path for the next delta job against it.
func (s *Server) cacheOntologies(snapID string, o1, o2 *store.Ontology) {
	s.deltaMu.Lock()
	s.ontoID, s.onto1, s.onto2 = snapID, o1, o2
	s.deltaMu.Unlock()
}

// loadKB is store.LoadFile through the streaming parallel ingest pipeline:
// block-parallel parsing that feeds the builder in input order, memory
// bounded by the pipeline's read-ahead window, cancellation checked per
// block, and — when jobID is non-empty — progress onto the job record and
// its SSE stream, paced by loadProgress.
func (s *Server) loadKB(ctx context.Context, jobID, phase, path string, lits *store.Literals, norm store.Normalizer) (o *store.Ontology, err error) {
	ctx, sp := obs.StartSpan(ctx, s.opts.Logf, "ingest.load")
	sp.Set("phase", phase)
	sp.Set("path", path)
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	progress, flush := s.loadProgress(jobID, phase)
	defer flush()
	return store.LoadReaderContext(ctx, f, path, kbName(path), lits, norm,
		store.WithParallelism(s.opts.IngestWorkers), store.WithLoadProgress(progress))
}

// ingestEventStride is the input volume between two ingest progress events
// on a job record. Each event clones the record and costs every SSE
// watcher a JSON frame and a flush, so a job's event count follows its
// input size, not the pipeline's block size.
const ingestEventStride = 1 << 20

// loadProgress returns the per-block progress callback of one streaming
// load and a flush to call once the load has returned. Every block feeds
// the ingest metrics. When jobID is non-empty, the job record (and so its
// SSE stream) also gets the first block past each MiB of input, and flush
// forwards the last block the load reached unless it was just forwarded:
// a successful load's final totals, or where a failed one stopped. A
// sub-MiB file thus makes one event, a 5.3 MiB file six.
func (s *Server) loadProgress(jobID, phase string) (progress func(ingest.Progress), flush func()) {
	feed := s.met.ingestFeeder()
	if jobID == "" {
		return feed, func() {}
	}
	var last, sent ingest.Progress
	forward := func() {
		sent = last
		s.jobs.ingestProgress(jobID, IngestProgress{Progress: last, Phase: phase})
	}
	progress = func(p ingest.Progress) {
		feed(p)
		last = p
		if p.Bytes/ingestEventStride > sent.Bytes/ingestEventStride {
			forward()
		}
	}
	flush = func() {
		if last.Blocks > sent.Blocks {
			forward()
		}
	}
	return progress, flush
}

// PublishResult persists a result computed outside the jobs API (for
// example an offline batch run of core.Aligner) as a new snapshot and
// serves it immediately. The result's ontologies are retained for delta
// re-alignment against the snapshot; a later POST /v1/deltas may extend
// them in place, so callers must not keep using them independently.
func (s *Server) PublishResult(res *core.Result) (string, error) {
	id, err := s.publish(res.Snapshot())
	if err == nil {
		s.cacheOntologies(id, res.O1, res.O2)
	}
	return id, err
}

// publish persists snap under the next snapshot ID and atomically swaps the
// serving index to it. Readers racing with publish see either the old or
// the new index, never a partial one.
func (s *Server) publish(snap *core.ResultSnapshot) (string, error) {
	id := s.reserveSnapshotID()
	if err := s.publishAs(id, snap); err != nil {
		return "", err
	}
	s.gc()
	return id, nil
}

// reserveSnapshotID allocates the next snapshot ID without publishing
// anything under it yet. Delta jobs reserve first so the segment file can
// be persisted under the snapshot's name before the snapshot itself — a
// crash in between leaves an orphan segment (never consulted, since lineage
// is read from snapshots), not a snapshot without its replay input. A
// reservation abandoned on error leaves a gap in the sequence, which the
// ID listing tolerates.
func (s *Server) reserveSnapshotID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapSeq++
	return diskstore.SnapshotID(s.snapSeq)
}

// errSnapshotExists reports an attempt to publish under an ID that is
// already taken — only possible through snapshot ingestion, where the
// caller names the ID instead of reserving one.
var errSnapshotExists = errors.New("snapshot already exists")

// publishAs persists snap under a reserved ID and atomically swaps the
// serving index to it. Reservations can complete out of order (two cold
// jobs, or a cold job racing a delta job's segment write), so the snapshot
// list is kept in ID order and the serving index only ever moves forward —
// a slower job publishing an older reserved ID never regresses "current",
// and a restart (which serves the highest listed ID) agrees with the live
// server. A snapshot that already carries a publication time (an ingested
// slice of a snapshot published elsewhere) keeps it, so all shards of one
// version agree on when it was created.
func (s *Server) publishAs(id string, snap *core.ResultSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := len(s.snaps)
	for pos > 0 && snapshotNewer(s.snaps[pos-1].ID, id) {
		pos--
	}
	if pos > 0 && s.snaps[pos-1].ID == id {
		return fmt.Errorf("%s: %w", id, errSnapshotExists)
	}
	if snap.CreatedAt.IsZero() {
		snap.CreatedAt = time.Now().UTC()
	}
	info := snapshotInfo(id, snap)
	if meta, err := json.Marshal(info); err == nil {
		// Metadata before snapshot: SaveSnapshot's Sync covers both, and
		// an orphan metadata record (crash in between) is never consulted.
		if err := diskstore.SaveSnapshotMeta(s.store, id, meta); err != nil {
			return err
		}
	}
	if err := diskstore.SaveSnapshot(s.store, id, snap); err != nil {
		return err
	}
	s.snaps = slices.Insert(s.snaps, pos, info)
	s.met.published.Inc()
	s.met.snapshots.Set(float64(len(s.snaps)))
	if cur := s.idx.Load(); cur == nil || snapshotNewer(id, cur.id) {
		s.idx.Store(buildIndex(id, snap))
	}
	s.cache.purge()
	return nil
}

// gc retires snapshots beyond the retention window (Options.Retain): the
// newest Retain snapshots stay, plus everything reachable through their
// lineage (so delta chains remain replayable after a restart) and any
// snapshot held by a pinned ?snapshot= index. Retired snapshots lose their
// store record and delta segment, and the store log is compacted to
// reclaim the space.
func (s *Server) gc() {
	if s.opts.Retain <= 0 {
		return
	}
	// Bases of accepted-but-unfinished delta jobs must survive, or the
	// server would doom work it already acknowledged with 202.
	activeBases := s.jobs.activeDeltaBases()
	retain := s.opts.Retain
	if s.opts.ShardCount > 0 {
		// A shard keeps one extra version: between this shard ingesting a
		// new snapshot and the last shard acknowledging it, the router
		// still pins every unpinned read to the previous epoch — retiring
		// it here would 404 those reads for exactly the window the
		// two-phase publish exists to protect.
		retain++
	}
	s.mu.Lock()
	keep := make(map[string]bool)
	for i := max(0, len(s.snaps)-retain); i < len(s.snaps); i++ {
		keep[s.snaps[i].ID] = true
	}
	if ix := s.idx.Load(); ix != nil {
		keep[ix.id] = true
	}
	for id := range s.pinned {
		keep[id] = true
	}
	for _, id := range activeBases {
		keep[id] = true
	}
	// Lineage closure: a kept delta snapshot needs its whole base chain to
	// reconstruct ontologies after a restart.
	byID := make(map[string]SnapshotInfo, len(s.snaps))
	for _, info := range s.snaps {
		byID[info.ID] = info
	}
	for id := range keep {
		for base := byID[id].Base; base != "" && !keep[base]; base = byID[base].Base {
			keep[base] = true
		}
	}
	var victims []string
	kept := s.snaps[:0]
	for _, info := range s.snaps {
		if keep[info.ID] {
			kept = append(kept, info)
		} else {
			victims = append(victims, info.ID)
		}
	}
	s.snaps = kept
	s.met.snapshots.Set(float64(len(s.snaps)))
	for _, id := range victims {
		if err := diskstore.DeleteSnapshot(s.store, id); err != nil {
			s.opts.Logf("server: gc: deleting %s: %v", id, err)
		}
		if err := diskstore.RemoveDeltaSegment(s.deltaDir, id); err != nil {
			s.opts.Logf("server: gc: removing segment %s: %v", id, err)
		}
	}
	s.mu.Unlock()
	if len(victims) > 0 {
		if err := s.store.Compact(); err != nil {
			s.opts.Logf("server: gc: compact: %v", err)
		}
		s.opts.Logf("server: gc: retired %d snapshot(s): %v", len(victims), victims)
	}
}

func normalizer(name string) (store.Normalizer, error) {
	switch name {
	case "", "identity":
		return nil, nil
	case "alphanum":
		return literal.AlphaNum, nil
	case "numeric":
		return literal.Numeric, nil
	default:
		return nil, fmt.Errorf("unknown normalization %q (want identity, alphanum, or numeric)", name)
	}
}

// kbName derives a display name from a KB path: the base name without RDF
// or gzip extensions, shared with store.LoadFile's extension table.
func kbName(path string) string { return store.BaseName(path) }

// ---- HTTP layer ----

// buildMux wires the versioned /v1 API. Method-specific patterns make the
// mux answer wrong-method requests on a known path with 405 plus an Allow
// header instead of 404. The unversioned routes of the first release (308
// redirects for one release) are gone; /v1 is the only surface.
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("POST /v1/deltas", s.handleSubmitDelta)
	mux.HandleFunc("POST /v1/kbs", s.handleUploadKB)
	mux.HandleFunc("GET /v1/kbs", s.handleKBs)
	mux.HandleFunc("DELETE /v1/kbs/{name}", s.handleDeleteKB)
	mux.HandleFunc("GET /v1/sameas", s.handleSameAs)
	mux.HandleFunc("POST /v1/sameas", s.handleSameAsBatch)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/relations", s.handleRelations)
	mux.HandleFunc("GET /v1/classes", s.handleClasses)
	mux.HandleFunc("GET /v1/snapshots", s.handleSnapshots)
	mux.HandleFunc("GET /v1/snapshots/{id}", s.handleExportSnapshot)
	mux.HandleFunc("PUT /v1/snapshots/{id}", s.handleIngestSnapshot)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/jobs/{id}/convergence", s.handleJobConvergence)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Pure liveness: the process is up and serving HTTP. Readiness
		// (is there anything to serve?) is /v1/readyz.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	// Trace-by-ID on the main listener (not just -debug-addr): the router's
	// fleet stitcher reaches shards through their API URL.
	mux.Handle("GET /debug/traces/{trace}", obs.TraceDumpHandler(s.col, s.instanceName()))
	mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	s.mux = mux
	// Route patterns for the per-route metrics come from the mux itself, so
	// labels stay bounded: every /v1/jobs/{id} collapses to one pattern
	// instead of one label per job ID.
	route := func(r *http.Request) string {
		_, pattern := mux.Handler(r)
		return pattern
	}
	s.handler = s.met.http.Middleware(route, s.opts.Logf, mux)
}

// errNoSnapshot is the read-path failure before any alignment completed.
var errNoSnapshot = errors.New("no completed alignment yet")

// indexFor resolves the serving index for a read request: the current
// snapshot when snapID is empty, or the pinned snapshot named by the
// ?snapshot= parameter — the repeatable-read mode, immune to concurrent
// publishes. Non-current pinned indexes are rebuilt from the diskstore on
// first use and cached (bounded). On failure it returns the HTTP status to
// report.
func (s *Server) indexFor(snapID string) (*index, int, error) {
	cur := s.idx.Load()
	if snapID == "" || (cur != nil && cur.id == snapID) {
		if cur == nil {
			return nil, http.StatusServiceUnavailable, errNoSnapshot
		}
		return cur, 0, nil
	}
	// Load and build outside s.mu: the diskstore synchronizes its own
	// reads, and rebuilding a large snapshot's index must not stall
	// publish or the other mu-guarded endpoints.
	ix, err := buildOnce(s, s.pinned, maxPinnedIndexes, snapID, func() (*index, error) {
		snap, err := diskstore.LoadSnapshot(s.store, snapID)
		if err != nil {
			return nil, err
		}
		return buildIndex(snapID, snap), nil
	})
	switch {
	case errors.Is(err, errUnknownSnapshot), errors.Is(err, diskstore.ErrNotFound):
		// ErrNotFound: retired by the GC between the known-check and the
		// load.
		return nil, http.StatusNotFound, fmt.Errorf("unknown snapshot %q", snapID)
	case err != nil:
		return nil, http.StatusInternalServerError, fmt.Errorf("loading snapshot %s: %w", snapID, err)
	}
	return ix, 0, nil
}

// cacheEntry is one entry of a build-once cache (Server.pinned,
// Server.engines). The caller that inserts it builds the value; callers of
// the same key that arrive meanwhile wait on ready. val and err are written
// once, before ready is closed.
type cacheEntry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// errUnknownSnapshot is buildOnce's answer for a snapshot ID s.snaps does
// not list.
var errUnknownSnapshot = errors.New("unknown snapshot")

// buildOnce returns the value cache holds for snapshot key, running build
// on a miss. Concurrent callers of one key share one build: the caller that
// inserts the pending entry builds outside s.mu, and the others wait for
// it. A failed build reaches every waiter and leaves the cache, so the next
// caller builds again. A miss on a snapshot s.snaps does not list fails
// with errUnknownSnapshot and inserts nothing. A miss on a full cache
// evicts an arbitrary entry: the values are rebuildable and their readers
// few.
func buildOnce[V any](s *Server, cache map[string]*cacheEntry[V], limit int, key string, build func() (V, error)) (V, error) {
	s.mu.Lock()
	e, ok := cache[key]
	if !ok {
		if !slices.ContainsFunc(s.snaps, func(info SnapshotInfo) bool { return info.ID == key }) {
			s.mu.Unlock()
			var zero V
			return zero, errUnknownSnapshot
		}
		for len(cache) >= limit {
			for k := range cache {
				delete(cache, k)
				break
			}
		}
		e = &cacheEntry[V]{ready: make(chan struct{})}
		cache[key] = e
	}
	s.mu.Unlock()
	if s.testCacheLookup != nil {
		s.testCacheLookup(key, !ok)
	}
	if ok {
		<-e.ready
		return e.val, e.err
	}
	e.val, e.err = build()
	if e.err != nil {
		s.mu.Lock()
		if cache[key] == e {
			delete(cache, key)
		}
		s.mu.Unlock()
	}
	close(e.ready)
	return e.val, e.err
}

// rejectOnShard answers job- and delta-submission requests on a shard: a
// shard serves a read-only slice of the key space and receives its data
// through PUT /v1/snapshots/{id}, never by aligning.
func (s *Server) rejectOnShard(w http.ResponseWriter) bool {
	if s.opts.ShardCount <= 0 {
		return false
	}
	httpError(w, http.StatusForbidden,
		"this server is shard %d/%d and serves lookups only; submit jobs to the aligner",
		s.opts.ShardIndex, s.opts.ShardCount)
	return true
}

// handleIngestSnapshot implements PUT /v1/snapshots/{id}: publish a
// pre-computed snapshot (the versioned binary encoding) under an explicit,
// caller-chosen ID. This is how a sharded deployment distributes per-shard
// slices — the publisher splits one snapshot and pushes slice i to shard i
// under a common ID, so a pinned ?snapshot= read resolves consistently on
// every shard — and it also serves offline batch runs that compute results
// outside the jobs API. Re-publishing a taken ID answers 409.
func (s *Server) handleIngestSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	seq, err := diskstore.ParseSnapshotID(id)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxSnapshotBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "snapshot exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	snap := new(core.ResultSnapshot)
	if err := snap.UnmarshalBinary(data); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Keep the ID sequence ahead of ingested IDs so a later reserved ID
	// can never collide with one named by a publisher. The other direction
	// needs a guard on aligners only: an unlisted ID at or below the
	// sequence may be reserved by an in-flight job (reservation precedes
	// publication), and publishing over it would doom 202-acknowledged
	// work when that job finishes. Shards never reserve — jobs are refused
	// there — so re-pushing an older version to a shard stays legal (the
	// rerun-a-half-failed-publish case).
	s.mu.Lock()
	if seq > s.snapSeq {
		s.snapSeq = seq
	} else if s.opts.ShardCount == 0 &&
		!slices.ContainsFunc(s.snaps, func(info SnapshotInfo) bool { return info.ID == id }) {
		s.mu.Unlock()
		httpError(w, http.StatusConflict,
			"snapshot ID %s may collide with an in-flight job reservation; use an ID above the current sequence", id)
		return
	}
	s.mu.Unlock()
	if err := s.publishAs(id, snap); err != nil {
		if errors.Is(err, errSnapshotExists) {
			httpError(w, http.StatusConflict, "%v", err)
		} else {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.gc()
	s.opts.Logf("server: ingested snapshot %s (%s vs %s, %d instances)",
		id, snap.KB1, snap.KB2, len(snap.Instances))
	writeJSON(w, http.StatusCreated, snapshotInfo(id, snap))
}

// handleExportSnapshot implements GET /v1/snapshots/{id}: the persisted
// snapshot in its portable binary encoding, the counterpart of ingestion —
// a publisher fetches a version off the aligner with it, splits it, and
// pushes the slices to the shard fleet. The stored record is the exact
// MarshalBinary output, so it is served verbatim without decoding — a
// multi-GB snapshot export costs one buffer, not three.
func (s *Server) handleExportSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	known := slices.ContainsFunc(s.snaps, func(info SnapshotInfo) bool { return info.ID == id })
	s.mu.Unlock()
	if !known {
		httpError(w, http.StatusNotFound, "unknown snapshot %q", id)
		return
	}
	data, err := diskstore.LoadSnapshotRaw(s.store, id)
	if errors.Is(err, diskstore.ErrNotFound) { // retired by the GC since the check
		httpError(w, http.StatusNotFound, "unknown snapshot %q", id)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "loading snapshot %s: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnShard(w) {
		return
	}
	var req JobRequest
	// A job request is a handful of strings and numbers; cap the body so a
	// huge payload cannot balloon the heap before validation.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.KB1 == "" || req.KB2 == "" {
		httpError(w, http.StatusBadRequest, "kb1 and kb2 are required")
		return
	}
	if _, err := normalizer(req.Normalize); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Bound the numeric knobs: these flow straight into core.Config, where
	// an absurd worker count would spawn that many goroutines.
	if req.Workers < 0 || req.Workers > maxJobWorkers {
		httpError(w, http.StatusBadRequest, "workers must be between 0 and %d", maxJobWorkers)
		return
	}
	if req.MaxIterations < 0 || req.MaxIterations > maxJobIterations {
		httpError(w, http.StatusBadRequest, "max_iterations must be between 0 and %d", maxJobIterations)
		return
	}
	if req.Theta < 0 || req.Theta >= 1 {
		httpError(w, http.StatusBadRequest, "theta must be in [0, 1)")
		return
	}
	// "kb:<name>" references resolve to committed uploads here, at submit
	// time, so the persisted job record carries the real path — restart
	// replay of delta chains reloads from it without re-resolving.
	for _, kb := range []*string{&req.KB1, &req.KB2} {
		p, err := s.resolveKBRef(*kb)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		*kb = p
	}
	for _, p := range []string{req.KB1, req.KB2} {
		if _, err := os.Stat(p); err != nil {
			httpError(w, http.StatusBadRequest, "knowledge base %q: %v", p, err)
			return
		}
	}
	j, err := s.jobs.submit(Job{Kind: KindAlign, Request: req})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if wantsEventStream(r) {
		s.handleJobEvents(w, r)
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleCancelJob implements DELETE /v1/jobs/{id}: a queued job fails
// immediately, a running job has its fixpoint aborted through the context
// and reaches failed within one pass. Either way the job record survives
// (the history is the audit trail); only terminal jobs refuse with 409.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, prev, ok := s.jobs.cancel(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	switch prev {
	case JobQueued:
		// The transition happened here; persist the terminal record.
		s.persistJob(j)
		s.opts.Logf("server: %s canceled while queued", id)
		writeJSON(w, http.StatusOK, j)
	case JobRunning:
		// The worker observes the canceled context and persists the
		// failed record itself; report the in-flight view.
		s.opts.Logf("server: %s cancellation requested", id)
		writeJSON(w, http.StatusAccepted, j)
	default:
		httpError(w, http.StatusConflict, "job already %s", prev)
	}
}

// sameAsResponse is the body of GET /v1/sameas.
type sameAsResponse struct {
	Snapshot   string  `json:"snapshot"`
	KB         string  `json:"kb"`
	Key        string  `json:"key"`
	Matches    []Match `json:"matches"`
	Normalized bool    `json:"normalized,omitempty"`
}

// batchSameAsRequest is the body of POST /v1/sameas: one direction, many
// keys, amortizing HTTP overhead for bulk consumers.
type batchSameAsRequest struct {
	KB   string   `json:"kb"`
	Keys []string `json:"keys"`
}

// batchSameAsResult is one per-key answer inside a batch response. A key
// with no alignment yields empty matches rather than failing the batch.
type batchSameAsResult struct {
	Key        string  `json:"key"`
	Matches    []Match `json:"matches,omitempty"`
	Normalized bool    `json:"normalized,omitempty"`
}

// batchSameAsResponse is the body of POST /v1/sameas.
type batchSameAsResponse struct {
	Snapshot string              `json:"snapshot"`
	KB       string              `json:"kb"`
	Found    int                 `json:"found"`
	Results  []batchSameAsResult `json:"results"`
}

// resolveMatches answers one sameAs key: the lock-free exact hit first,
// then the normalized fallback through the LRU. Cache keys carry the
// snapshot ID (so a reader racing with publish cannot repopulate the purged
// cache with stale matches, and pinned-snapshot reads get their own
// entries) and the resolved direction (so kb aliases like "1" and the KB
// name share entries). populate controls whether a miss is written back:
// the batch path reads the cache but never writes it, so one 10k-key batch
// of cold keys cannot evict every hot entry serving interactive GETs.
func (s *Server) resolveMatches(ix *index, fwd bool, key string, populate bool) (matches []Match, normalized bool) {
	if m, ok := ix.lookup(fwd, key); ok {
		return []Match{m}, false
	}
	cacheKey := ix.id + "\x00" + dirByte(fwd) + "\x00" + key
	matches, ok := s.cache.get(cacheKey)
	if !ok {
		matches = ix.lookupNormalized(fwd, key)
		if populate {
			s.cache.put(cacheKey, matches)
		}
	}
	return matches, true
}

// direction resolves the kb parameter against an index, writing the 400
// response itself on failure.
func direction(w http.ResponseWriter, ix *index, kb string) (fwd, ok bool) {
	fwd, ok = ix.direction(kb)
	if !ok {
		if ix.kb1 == ix.kb2 {
			httpError(w, http.StatusBadRequest, "kb must be 1 or 2 (both KBs are named %q)", ix.kb1)
		} else {
			httpError(w, http.StatusBadRequest, "kb must be 1, 2, %q, or %q", ix.kb1, ix.kb2)
		}
	}
	return fwd, ok
}

func (s *Server) handleSameAs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query() // parse once: this is the benchmark-tracked hot path
	ix, code, err := s.indexFor(q.Get("snapshot"))
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	s.met.lookups.Inc()
	key := q.Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "key parameter is required")
		return
	}
	kb := q.Get("kb")
	fwd, ok := direction(w, ix, kb)
	if !ok {
		return
	}
	matches, normalized := s.resolveMatches(ix, fwd, key, true)
	if len(matches) == 0 {
		httpError(w, http.StatusNotFound, "no alignment for %q", key)
		return
	}
	writeJSON(w, http.StatusOK, sameAsResponse{
		Snapshot: ix.id, KB: kb, Key: key,
		Matches: matches, Normalized: normalized,
	})
}

// handleSameAsBatch implements POST /v1/sameas: many keys in one
// round-trip. Keys without an alignment come back with empty matches; the
// response reports how many resolved.
func (s *Server) handleSameAsBatch(w http.ResponseWriter, r *http.Request) {
	ix, code, err := s.indexFor(r.URL.Query().Get("snapshot"))
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	var req batchSameAsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Keys) == 0 {
		httpError(w, http.StatusBadRequest, "keys must not be empty")
		return
	}
	if len(req.Keys) > MaxBatchKeys {
		httpError(w, http.StatusBadRequest, "at most %d keys per batch (got %d)", MaxBatchKeys, len(req.Keys))
		return
	}
	fwd, ok := direction(w, ix, req.KB)
	if !ok {
		return
	}
	s.met.lookups.Add(uint64(len(req.Keys)))
	resp := batchSameAsResponse{
		Snapshot: ix.id, KB: req.KB,
		Results: make([]batchSameAsResult, len(req.Keys)),
	}
	for i, key := range req.Keys {
		matches, normalized := s.resolveMatches(ix, fwd, key, false)
		resp.Results[i] = batchSameAsResult{Key: key, Matches: matches, Normalized: normalized && len(matches) > 0}
		if len(matches) > 0 {
			resp.Found++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	serveScores(s, w, r, "relations", func(ix *index, dir string) []core.SnapshotRelation {
		if dir == "21" {
			return ix.relations21
		}
		return ix.relations12
	}, func(ra core.SnapshotRelation) (string, float64) { return ra.Sub, ra.P })
}

func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) {
	serveScores(s, w, r, "classes", func(ix *index, dir string) []core.SnapshotClass {
		if dir == "21" {
			return ix.classes21
		}
		return ix.classes12
	}, func(ca core.SnapshotClass) (string, float64) { return ca.Sub, ca.P })
}

// serveScores is the shared body of the relations and classes endpoints:
// resolve the (possibly pinned) snapshot, pick the direction, filter by
// minimum probability, and emit under field in descending-probability
// order.
func serveScores[T any](s *Server, w http.ResponseWriter, r *http.Request, field string,
	pick func(*index, string) []T, key func(T) (string, float64)) {
	q := r.URL.Query()
	ix, code, err := s.indexFor(q.Get("snapshot"))
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	dir, min, err := dirAndMin(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The index slices are already sorted (descending P, then sub key) by
	// buildIndex, so a request only filters.
	scores := pick(ix, dir)
	out := make([]T, 0, len(scores))
	for _, sc := range scores {
		if _, p := key(sc); p >= min {
			out = append(out, sc)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": ix.id, "dir": dir, field: out,
	})
}

func (s *Server) handleSnapshots(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snaps := append([]SnapshotInfo(nil), s.snaps...)
	s.mu.Unlock()
	current := ""
	if ix := s.idx.Load(); ix != nil {
		current = ix.id
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshots": snaps, "current": current})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	hits, misses, size := s.cache.stats()
	stats := map[string]any{
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"jobs":           s.jobs.counts(),
		"lookups":        s.met.lookups.Value(),
		"cache": map[string]any{
			"hits": hits, "misses": misses, "size": size, "cap": s.opts.CacheSize,
		},
	}
	s.mu.Lock()
	stats["snapshots"] = len(s.snaps)
	s.mu.Unlock()
	if s.opts.ShardCount > 0 {
		stats["shard"] = map[string]any{
			"index": s.opts.ShardIndex, "count": s.opts.ShardCount,
		}
	}
	if ix := s.idx.Load(); ix != nil {
		stats["snapshot"] = map[string]any{
			"id": ix.id, "kb1": ix.kb1, "kb2": ix.kb2,
			"instances": len(ix.fwd),
			"relations": len(ix.relations12) + len(ix.relations21),
			"classes":   len(ix.classes12) + len(ix.classes21),
			"created":   ix.createdAt,
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

// dirByte encodes a lookup direction for cache keys.
func dirByte(fwd bool) string {
	if fwd {
		return "1"
	}
	return "2"
}

// dirAndMin parses the shared dir and min query parameters.
func dirAndMin(q url.Values) (dir string, min float64, err error) {
	dir = q.Get("dir")
	switch dir {
	case "", "12":
		dir = "12"
	case "21":
	default:
		return "", 0, fmt.Errorf("dir must be 12 or 21")
	}
	if raw := q.Get("min"); raw != "" {
		min, err = strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", 0, fmt.Errorf("min must be a number: %w", err)
		}
	}
	return dir, min, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// The status line is already written; an encode error (client gone,
	// handler timeout) has nowhere to go.
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
