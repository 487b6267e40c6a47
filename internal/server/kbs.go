package server

// POST /v1/kbs: push-based KB ingestion. Submitting an alignment job
// references KB files on the server's filesystem, which assumes the aligner
// can see the dumps — false for a remote aligner fed from a laptop or an
// ETL pipeline. The upload endpoint closes that gap: the client streams a
// (possibly gzipped) N-Triples dump as a chunked request body, the server
// spools it, and a job on the shared worker pool validates it through the
// streaming ingest pipeline (parallel block parsing in bounded memory,
// progress about once per MiB on the job record and its SSE stream) before
// committing it into <state>/kbs/ for later POST /v1/jobs use.
//
// Error semantics are resumable: a connection that dies mid-body leaves the
// spool in place, GET /v1/kbs reports the partial upload's byte offset, and
// the client re-POSTs the remainder with ?offset=N. Offsets must match the
// spool exactly (409 with the current offset otherwise), so a duplicated or
// reordered retry can never interleave bytes.

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/rdf"
)

// kbNameRE constrains uploaded KB names: path-safe (no separators, cannot
// start with a dot, so neither hidden files nor traversal are expressible)
// and short enough for any filesystem.
var kbNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// uploadFormats are the formats POST /v1/kbs accepts: the N-Triples family,
// optionally gzipped — the formats the block-parallel pipeline can split.
// (Turtle is stateful and cannot be block-parallelized; convert first.)
var uploadFormats = map[string]bool{
	".nt": true, ".ntriples": true, ".nt.gz": true, ".ntriples.gz": true,
}

// partialSuffix marks an in-flight (or interrupted) upload spool.
const partialSuffix = ".partial"

// KBInfo is one entry of GET /v1/kbs: a committed, ready-to-align KB or a
// partial upload awaiting its remaining bytes.
type KBInfo struct {
	Name string `json:"name"`
	// State is "ready" or "partial".
	State string `json:"state"`
	// File is the server-side path of a ready KB — the value to use as
	// kb1/kb2 in POST /v1/jobs.
	File string `json:"file,omitempty"`
	// Bytes is the on-disk size (compressed, if gzip).
	Bytes int64 `json:"bytes"`
	// Offset is the resume offset of a partial upload: re-POST the body
	// tail with ?offset=<this>.
	Offset int64 `json:"offset,omitempty"`
}

// kbsDir is the committed-KB and spool directory under the state dir.
func (s *Server) kbsDir() string { return filepath.Join(s.opts.StateDir, "kbs") }

// kbPartialPath is the spool of one named upload.
func (s *Server) kbPartialPath(name string) string {
	return filepath.Join(s.kbsDir(), name+partialSuffix)
}

// handleUploadKB implements POST /v1/kbs?name=N&format=.nt.gz[&offset=M]
// [&align-with=R]: stream the request body into the named spool, then hand
// validation and commit to an ingest job on the worker pool (202 + job
// record). With align-with, an alignment job against R (another uploaded
// KB as "kb:<name>" or a bare name, or a server-side path) is chained
// behind the ingest job — it runs only once the upload commits — and the
// returned ingest record names it in Next, so one request carries both IDs.
func (s *Server) handleUploadKB(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnShard(w) {
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	if !kbNameRE.MatchString(name) {
		httpError(w, http.StatusBadRequest, "name must match %s", kbNameRE)
		return
	}
	alignWith := q.Get("align-with")
	if alignWith != "" {
		// Normalize a bare uploaded-KB name to its "kb:" reference and fail
		// fast — before the body streams — on a target that cannot resolve.
		if !strings.HasPrefix(alignWith, "kb:") && kbNameRE.MatchString(alignWith) {
			alignWith = "kb:" + alignWith
		}
		if strings.HasPrefix(alignWith, "kb:") {
			if _, err := s.resolveKBRef(alignWith); err != nil {
				httpError(w, http.StatusBadRequest, "align-with: %v", err)
				return
			}
		} else if _, err := os.Stat(alignWith); err != nil {
			httpError(w, http.StatusBadRequest, "align-with %q: %v", alignWith, err)
			return
		}
	}
	format := strings.ToLower(q.Get("format"))
	if format == "" {
		format = ".nt"
	} else if !strings.HasPrefix(format, ".") {
		format = "." + format
	}
	if !uploadFormats[format] {
		httpError(w, http.StatusBadRequest,
			"format %q not supported for upload (want .nt or .ntriples, optionally .gz)", format)
		return
	}
	var offset int64
	if raw := q.Get("offset"); raw != "" {
		var err error
		if offset, err = strconv.ParseInt(raw, 10, 64); err != nil || offset < 0 {
			httpError(w, http.StatusBadRequest, "offset must be a non-negative integer")
			return
		}
	}

	// One spool writer at a time — a concurrent upload (or the ingest job
	// validating the spool, which holds the same lock) would interleave
	// with this request's bytes. Released explicitly before the job is
	// submitted, so the worker can take it; the deferred release only
	// covers the error paths.
	if !s.lockUpload(name) {
		httpError(w, http.StatusConflict, "an upload or ingest of %q is already in progress", name)
		return
	}
	locked := true
	defer func() {
		if locked {
			s.unlockUpload(name)
		}
	}()

	if err := os.MkdirAll(s.kbsDir(), 0o755); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	partial := s.kbPartialPath(name)
	cur := int64(0)
	if fi, err := os.Stat(partial); err == nil {
		cur = fi.Size()
	}
	if offset != cur {
		// The resume contract: the client must continue exactly where the
		// spool ends. The 409 body carries the offset to continue from.
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("upload offset %d does not match the spooled %d bytes", offset, cur),
			"offset": cur,
		})
		return
	}
	if offset >= s.opts.MaxUploadBytes {
		httpError(w, http.StatusRequestEntityTooLarge,
			"KB exceeds the %d-byte upload limit", s.opts.MaxUploadBytes)
		return
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if offset == 0 {
		flags = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(partial, flags, 0o644)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Bound the spool like every other write endpoint bounds its body
	// (MaxSnapshotBytes on PUT /v1/snapshots): one runaway chunked body
	// must not fill the state disk. The cap applies to the whole KB, so a
	// resume may only use what the earlier bytes left.
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes-offset)
	n, copyErr := io.Copy(f, body)
	if err := f.Close(); copyErr == nil {
		copyErr = err
	}
	if copyErr != nil {
		var tooBig *http.MaxBytesError
		if errors.As(copyErr, &tooBig) {
			// What fit is spooled; the client can resume once the
			// operator raises -max-upload-bytes.
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error":  fmt.Sprintf("KB exceeds the %d-byte upload limit", s.opts.MaxUploadBytes),
				"offset": offset + n,
			})
			return
		}
		// The spool keeps what arrived; the client resumes from its end.
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":  fmt.Sprintf("upload interrupted after %d bytes: %v", n, copyErr),
			"offset": offset + n,
		})
		return
	}

	rec := &UploadRecord{Name: name, Format: format, Bytes: offset + n}
	s.unlockUpload(name)
	locked = false
	ingestJob := Job{Kind: KindIngest, Upload: rec}
	var j Job
	var submitErr error
	if alignWith != "" {
		// The align job references the upload as "kb:<name>": it cannot
		// resolve yet (the spool commits when the ingest job succeeds), so
		// the worker resolves it at run time, after its dependency is done.
		var aj Job
		j, aj, submitErr = s.jobs.submitChain(ingestJob, Job{
			Kind:    KindAlign,
			Request: JobRequest{KB1: "kb:" + name, KB2: alignWith},
		})
		if submitErr == nil {
			s.opts.Logf("server: %s chained to align kb:%s vs %s", aj.ID, name, alignWith)
		}
	} else {
		j, submitErr = s.jobs.submit(ingestJob)
	}
	if submitErr != nil {
		// Queue full: the spool is complete on disk; re-POST with
		// ?offset=<size> and an empty body to resubmit without resending.
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  submitErr.Error(),
			"offset": rec.Bytes,
		})
		return
	}
	s.opts.Logf("server: %s ingesting KB %q (%s, %d bytes spooled)", j.ID, name, format, rec.Bytes)
	writeJSON(w, http.StatusAccepted, j)
}

// handleKBs implements GET /v1/kbs: every committed KB and partial upload.
func (s *Server) handleKBs(w http.ResponseWriter, _ *http.Request) {
	ents, err := os.ReadDir(s.kbsDir())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	kbs := make([]KBInfo, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		if strings.HasSuffix(e.Name(), partialSuffix) {
			kbs = append(kbs, KBInfo{
				Name:   strings.TrimSuffix(e.Name(), partialSuffix),
				State:  "partial",
				Bytes:  fi.Size(),
				Offset: fi.Size(),
			})
			continue
		}
		kbs = append(kbs, KBInfo{
			Name:  kbBaseName(e.Name()),
			State: "ready",
			File:  filepath.Join(s.kbsDir(), e.Name()),
			Bytes: fi.Size(),
		})
	}
	sort.Slice(kbs, func(i, j int) bool { return kbs[i].Name < kbs[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"kbs": kbs})
}

// kbCandidatePaths are the committed paths a named upload may live under,
// one per accepted format, in the resolution order of resolveKBRef.
func (s *Server) kbCandidatePaths(name string) []string {
	paths := make([]string, 0, 4)
	for _, ext := range []string{".nt", ".nt.gz", ".ntriples", ".ntriples.gz"} {
		paths = append(paths, filepath.Join(s.kbsDir(), name+ext))
	}
	return paths
}

// handleDeleteKB implements DELETE /v1/kbs/{name}: remove a committed KB
// and/or its upload spool. It refuses with 409 while a request is streaming
// into the spool or a queued/running job references the KB (deleting the
// input of 202-acknowledged work would doom it), and answers 404 when
// neither a committed file nor a spool exists.
func (s *Server) handleDeleteKB(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnShard(w) {
		return
	}
	name := r.PathValue("name")
	if !kbNameRE.MatchString(name) {
		httpError(w, http.StatusBadRequest, "name must match %s", kbNameRE)
		return
	}
	// The upload lock covers the spool and the commit rename, so a delete
	// can never race a writer on the same name.
	if !s.lockUpload(name) {
		httpError(w, http.StatusConflict, "an upload or ingest of %q is in progress", name)
		return
	}
	defer s.unlockUpload(name)
	candidates := s.kbCandidatePaths(name)
	if s.jobs.kbInUse(name, candidates) {
		httpError(w, http.StatusConflict, "KB %q is referenced by a queued or running job", name)
		return
	}
	var removed []string
	for _, p := range append(candidates, s.kbPartialPath(name)) {
		switch err := os.Remove(p); {
		case err == nil:
			removed = append(removed, filepath.Base(p))
		case !errors.Is(err, os.ErrNotExist):
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	if len(removed) == 0 {
		httpError(w, http.StatusNotFound, "no uploaded KB named %q", name)
		return
	}
	s.opts.Logf("server: deleted KB %q (%s)", name, strings.Join(removed, ", "))
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "files": removed})
}

// gcSpool removes upload spools whose last write is older than SpoolTTL.
// It runs once at startup, before the HTTP surface exists (so no spool can
// be in flight): an interrupted upload stays resumable for the TTL, after
// which its partial bytes are garbage no client will claim.
func (s *Server) gcSpool() {
	if s.opts.SpoolTTL <= 0 {
		return
	}
	ents, err := os.ReadDir(s.kbsDir())
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-s.opts.SpoolTTL)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), partialSuffix) {
			continue
		}
		fi, err := e.Info()
		if err != nil || fi.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(filepath.Join(s.kbsDir(), e.Name())); err == nil {
			s.opts.Logf("server: spool gc: removed abandoned upload %s (%d bytes, idle since %s)",
				e.Name(), fi.Size(), fi.ModTime().UTC().Format(time.RFC3339))
		}
	}
}

// kbBaseName strips the upload format extensions off a committed file name.
func kbBaseName(file string) string {
	lower := strings.ToLower(file)
	for _, ext := range []string{".nt.gz", ".ntriples.gz", ".nt", ".ntriples"} {
		if strings.HasSuffix(lower, ext) {
			return file[:len(file)-len(ext)]
		}
	}
	return file
}

// resolveKBRef resolves a "kb:<name>" reference in a job request to the
// committed upload's path, so clients can align pushed KBs without knowing
// the server's directory layout. Anything else passes through as a plain
// server-side path.
func (s *Server) resolveKBRef(ref string) (string, error) {
	name, ok := strings.CutPrefix(ref, "kb:")
	if !ok {
		return ref, nil
	}
	if !kbNameRE.MatchString(name) {
		return "", fmt.Errorf("invalid KB reference %q", ref)
	}
	for _, ext := range []string{".nt", ".nt.gz", ".ntriples", ".ntriples.gz"} {
		p := filepath.Join(s.kbsDir(), name+ext)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	if _, err := os.Stat(s.kbPartialPath(name)); err == nil {
		return "", fmt.Errorf("KB %q is a partial upload; finish it first", name)
	}
	return "", fmt.Errorf("no uploaded KB named %q", name)
}

// ingestKB executes one KindIngest job on a worker: stream the spooled
// upload through the parallel pipeline (validation + triple count, progress
// onto the job record paced by loadProgress), then commit the spool under
// its final name. A failed or canceled validation keeps the spool, so the
// bytes never have to be pushed twice; a corrupt dump is replaced by
// re-POSTing from offset 0.
func (s *Server) ingestKB(ctx context.Context, id string, rec UploadRecord) (string, error) {
	// The spool must not change underfoot: hold the upload lock for the
	// whole validation, so a resume POST for the same name waits its turn
	// (409 with the current offset) instead of appending to a file being
	// read — or being renamed out from under it on commit.
	if !s.lockUpload(rec.Name) {
		return "", fmt.Errorf("kb %q: another upload is in progress; retry", rec.Name)
	}
	defer s.unlockUpload(rec.Name)
	partial := s.kbPartialPath(rec.Name)
	f, err := os.Open(partial)
	if err != nil {
		return "", fmt.Errorf("upload spool: %w", err)
	}
	defer f.Close()
	// The job validates exactly the bytes its upload spooled. A resume
	// POST that landed between this job's submission and its run has
	// appended more — that resume submitted its own job with the full
	// size, so this one steps aside instead of committing a spool it did
	// not see whole.
	if fi, err := f.Stat(); err != nil {
		return "", fmt.Errorf("upload spool: %w", err)
	} else if fi.Size() != rec.Bytes {
		return "", fmt.Errorf("kb %q: spool is %d bytes but this upload ended at %d; superseded by a resumed upload",
			rec.Name, fi.Size(), rec.Bytes)
	}
	var r io.Reader = f
	if strings.HasSuffix(rec.Format, ".gz") {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return "", fmt.Errorf("kb %q: %w", rec.Name, err)
		}
		defer zr.Close()
		r = zr
	}
	progress, flush := s.loadProgress(id, rec.Name)
	stats, err := ingest.Run(ctx, r, ingest.Options{
		Workers:  s.opts.IngestWorkers,
		Progress: progress,
	}, func(rdf.Triple) error { return nil })
	flush()
	if err != nil {
		return "", fmt.Errorf("kb %q: %w", rec.Name, err)
	}
	if stats.Triples == 0 {
		return "", fmt.Errorf("kb %q: no triples in %d bytes", rec.Name, rec.Bytes)
	}
	committed := filepath.Join(s.kbsDir(), rec.Name+rec.Format)
	if err := os.Rename(partial, committed); err != nil {
		return "", err
	}
	s.jobs.setKB(id, committed)
	s.opts.Logf("server: %s committed KB %q: %d triples in %d blocks (%d skipped)",
		id, rec.Name, stats.Triples, stats.Blocks, stats.Skipped)
	return committed, nil
}

// lockUpload marks an upload name busy; it returns false when another
// request is already streaming into the same spool.
func (s *Server) lockUpload(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.uploads == nil {
		s.uploads = make(map[string]bool)
	}
	if s.uploads[name] {
		return false
	}
	s.uploads[name] = true
	return true
}

func (s *Server) unlockUpload(name string) {
	s.mu.Lock()
	delete(s.uploads, name)
	s.mu.Unlock()
}
