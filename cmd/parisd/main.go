// Command parisd is the PARIS alignment daemon: a long-running HTTP service
// that computes ontology alignments asynchronously and serves sameAs lookups
// from persistent snapshots.
//
// Usage:
//
//	parisd -state /var/lib/parisd [-addr :7171] [-workers 2] [-retain N]
//
// API (versioned under /v1; the unversioned routes of the first release are
// gone):
//
//	POST   /v1/jobs       {"kb1": "a.nt", "kb2": "b.nt", ...}  submit a job
//	GET    /v1/jobs       list jobs
//	GET    /v1/jobs/{id}  job state with per-iteration progress
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	POST   /v1/deltas     {"kb": "1", "ntriples": "..."}  incremental re-align
//	POST   /v1/kbs?name=N&format=.nt.gz[&offset=M]  push a KB dump (chunked body)
//	GET    /v1/kbs        uploaded KBs (ready + partial with resume offsets)
//	DELETE /v1/kbs/{name} remove an uploaded KB (409 while a job references it)
//	GET    /v1/sameas?kb=1&key=<iri>   entity lookup (kb=2 for the reverse)
//	POST   /v1/sameas     {"kb": "1", "keys": [...]}  batch lookup
//	GET    /v1/relations?dir=12&min=0.1
//	GET    /v1/classes?dir=12&min=0.1
//	GET    /v1/snapshots  persisted snapshot versions with lineage
//	GET    /v1/snapshots/{id}  export one snapshot (binary encoding)
//	PUT    /v1/snapshots/{id}  publish a pre-computed snapshot under that ID
//	GET    /v1/jobs/{id}/convergence  per-iteration fixpoint movement of a job
//	GET    /v1/stats      serving statistics
//	GET    /v1/healthz    liveness probe (process up)
//	GET    /v1/readyz     readiness probe (503 until a snapshot serves)
//	GET    /v1/slo        per-route-family error/latency burn rates (5m and 1h windows)
//	GET    /metrics       Prometheus text exposition (HTTP/jobs/ingest/fixpoint/Go runtime)
//	GET    /debug/traces/{trace}  retained span records of one trace ID (JSON)
//
// Every request is traced: an X-Paris-Trace header ("<trace>-<span>") is
// honored and re-parented, each request logs one span line with its
// duration and route, and an in-process flight recorder retains the span
// trees of slow (per-route p99-exceeding) and errored requests. The
// trace-by-ID dump on the main listener is what parisrouter's cross-process
// stitcher (GET /debug/traces?fleet=1 on the router) fans out to.
// -debug-addr adds a separate listener with /metrics, /debug/pprof, and
// GET /debug/traces (the retained trees; ?route=&min_ms=&errors=1&format=text).
// Abandoned upload spools (*.partial older than server.Options.SpoolTTL,
// default 24h) are garbage-collected at startup.
//
// POST /v1/deltas ingests added triples against a published snapshot and
// re-runs the fixpoint warm-started from it, publishing a new snapshot whose
// lineage (base version, delta digest) shows in GET /v1/snapshots. Delta
// batches are persisted as append-only segments, so a restart replays base
// KBs + deltas when further deltas arrive.
//
// POST /v1/kbs pushes a (possibly gzipped) N-Triples dump to the daemon as
// a streamed chunked body, so KBs can be aligned on a remote parisd without
// shipping files to its disk out of band. The spooled dump is validated by
// an ingest job on the worker pool — the streaming parallel loader
// (internal/ingest) parses blocks on -ingest-workers parsers and streams
// them on in input order, holding a few blocks per parser whatever the
// dump's size — then committed under <state>/kbs/; jobs reference it as
// "kb:<name>". An interrupted upload keeps its spooled bytes: GET /v1/kbs
// reports the offset, and re-POSTing with ?offset=M appends the remainder
// instead of starting over. Alignment jobs load their KB files through the
// same pipeline, with progress on the job record about once per MiB.
//
// GET /v1/jobs/{id} with "Accept: text/event-stream" streams job progress
// as server-sent events (state, iteration, ingest, done frames) instead of
// polling.
//
// Read endpoints (/v1/sameas, /v1/relations, /v1/classes) accept
// ?snapshot=<id> to pin a published snapshot version for repeatable reads.
// Wrong methods on known routes answer 405 with an Allow header.
//
// Completed alignments are persisted under -state and recovered on restart;
// the newest snapshot is served immediately, with no re-alignment. With
// -retain N, superseded snapshots beyond the newest N are retired after each
// publish unless pinned by lineage or an active ?snapshot= reader. The Go
// package repro/client wraps this API with typed methods.
//
// With -shard i/N the daemon serves as one shard of an N-way sharded
// deployment behind a parisrouter: it answers lookups for its slice of the
// key space only, refuses job and delta submissions, and receives per-shard
// snapshot slices through PUT /v1/snapshots/{id} (pushed by the publisher,
// or pre-written into -state with shard.WriteSlices before startup).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":7171", "HTTP listen address")
	debugAddr := flag.String("debug-addr", "", "optional listen address for /metrics and /debug/pprof (e.g. 127.0.0.1:7172); the main listener serves /metrics regardless")
	state := flag.String("state", "", "state directory for persistent snapshots (required)")
	workers := flag.Int("workers", 2, "concurrent alignment jobs")
	queue := flag.Int("queue", 16, "pending-job queue depth")
	cache := flag.Int("cache", 4096, "normalized-lookup LRU cache entries")
	retain := flag.Int("retain", 0, "snapshots to keep (0 keeps all); lineage-pinned snapshots always survive")
	shardSpec := flag.String("shard", "", "serve as shard i/N of a sharded deployment (e.g. 1/3): lookups only, slices via PUT /v1/snapshots/{id}")
	maxSnap := flag.Int64("max-snapshot-bytes", 0, "PUT /v1/snapshots/{id} body limit (0 = 1 GiB)")
	ingestWorkers := flag.Int("ingest-workers", 0, "parallel parse workers for streaming KB loads (0 = min(GOMAXPROCS, 8))")
	maxUpload := flag.Int64("max-upload-bytes", 0, "total spooled size limit of one POST /v1/kbs upload (0 = 16 GiB)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("parisd"))
		return
	}

	if *state == "" {
		fmt.Fprintln(os.Stderr, "usage: parisd -state DIR [-addr :7171]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var sp shard.Spec
	if *shardSpec != "" {
		var err error
		if sp, err = shard.ParseSpec(*shardSpec); err != nil {
			log.Fatal(err)
		}
	}

	srv, err := server.New(server.Options{
		StateDir:         *state,
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cache,
		Retain:           *retain,
		ShardIndex:       sp.Index,
		ShardCount:       sp.Count,
		MaxSnapshotBytes: *maxSnap,
		IngestWorkers:    *ingestWorkers,
		MaxUploadBytes:   *maxUpload,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	debugSrv := serveDebug(*debugAddr, srv.MetricsRegistry(), srv.Recorder(), "parisd")

	errCh := make(chan error, 1)
	go func() {
		log.Printf("parisd: listening on %s, state in %s", *addr, *state)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("parisd: %v, shutting down", s)
	}

	// HTTP connections and running alignments share one grace period;
	// once it ends, in-flight jobs are canceled (each aborts within one
	// fixpoint pass, persisted as failed) rather than waited out.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("parisd: HTTP shutdown: %v", err)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(ctx)
	}
	if err := srv.CloseContext(ctx); err != nil {
		log.Printf("parisd: closing state: %v", err)
	}
}

// serveDebug starts the opt-in debug listener: /metrics, /debug/pprof, and
// the flight recorder's /debug/traces on an address that can stay
// firewalled off from the serving one.
func serveDebug(addr string, reg *obs.Registry, col *obs.Collector, name string) *http.Server {
	if addr == "" {
		return nil
	}
	s := &http.Server{
		Addr:              addr,
		Handler:           obs.DebugMux(reg, col),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		log.Printf("%s: debug listener (metrics + pprof + traces) on %s", name, addr)
		if err := s.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("%s: debug listener: %v", name, err)
		}
	}()
	return s
}
