package server

// POST /v1/query: conjunctive queries over the aligned union KB. The
// serving index answers point lookups (sameAs, relations, classes); this
// endpoint answers joins — triple patterns whose variables range over the
// sameAs equivalence classes of a published snapshot and whose relation
// constants expand through its sub-relation and subclass tables, so one
// query returns rows that neither source KB holds alone (internal/query).
//
// The union KB of a snapshot is built once — from the ontology pair the
// aligner retains (or reconstructs, for delta lineages) — and cached with
// its plan-cache-carrying engine, bounded by maxQueryEngines. Requests may
// pin a snapshot ID the same way the lookup endpoints do, so a paginating
// client keeps a stable view while new alignments publish.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/diskstore"
	"repro/internal/obs"
	"repro/internal/query"
)

// Bounds of one POST /v1/query request.
const (
	// maxQueryBody bounds the request body; queries are short programs.
	maxQueryBody = 1 << 20
	// defaultQueryLimit and maxQueryLimit bound the distinct rows of one
	// response. A request may lower or raise the default up to the max.
	defaultQueryLimit = 1000
	maxQueryLimit     = 10000
	// defaultQueryTimeout and maxQueryTimeout bound the execution window; a
	// query that exhausts it returns its partial rows marked truncated.
	defaultQueryTimeout = 5 * time.Second
	maxQueryTimeout     = 30 * time.Second
	// maxQueryEngines bounds the cached union-KB engines. Two covers the
	// steady state — the current snapshot plus one pinned predecessor —
	// without letting pinned readers accumulate whole union KBs.
	maxQueryEngines = 2
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Query is the conjunctive query: whitespace-separated triple patterns
	// joined by ".", e.g. `?d <http://y/directed> ?m . ?m <http://i/hasGenre> ?g`.
	Query string `json:"query"`
	// Snapshot pins a published snapshot ID; empty queries the newest.
	Snapshot string `json:"snapshot,omitempty"`
	// Limit bounds the distinct result rows (default 1000, max 10000).
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds execution in milliseconds (default 5000, max 30000).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of POST /v1/query. Rows bind Vars in order;
// each binding carries the keys of its sameAs cluster in both KBs (or the
// literal), so a row is traceable to the source ontologies.
type QueryResponse struct {
	Snapshot  string          `json:"snapshot"`
	Vars      []string        `json:"vars"`
	Rows      [][]query.Value `json:"rows"`
	Truncated bool            `json:"truncated,omitempty"`
	Reason    string          `json:"reason,omitempty"`
	Stats     query.Stats     `json:"stats"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// A shard holds a key-space slice of the snapshot, not the ontology
	// pair a union KB is built from; queries belong on the aligner.
	if s.rejectOnShard(w) {
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, "query is required")
		return
	}
	limit := req.Limit
	switch {
	case limit <= 0:
		limit = defaultQueryLimit
	case limit > maxQueryLimit:
		httpError(w, http.StatusBadRequest, "limit must be at most %d", maxQueryLimit)
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	switch {
	case timeout <= 0:
		timeout = defaultQueryTimeout
	case timeout > maxQueryTimeout:
		httpError(w, http.StatusBadRequest, "timeout_ms must be at most %d", maxQueryTimeout/time.Millisecond)
		return
	}
	snapID := req.Snapshot
	if snapID == "" {
		ix := s.idx.Load()
		if ix == nil {
			s.met.queries.With("error").Inc()
			httpError(w, http.StatusServiceUnavailable, "%v", errNoSnapshot)
			return
		}
		snapID = ix.id
	} else if _, ok := s.snapshotInfoByID(snapID); !ok {
		s.met.queries.With("error").Inc()
		httpError(w, http.StatusNotFound, "unknown snapshot %q", snapID)
		return
	}

	eng, err := s.engineFor(r.Context(), snapID)
	if err != nil {
		s.met.queries.With("error").Inc()
		httpError(w, http.StatusInternalServerError, "building union KB for %s: %v", snapID, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	pctx, planSpan := obs.StartSpan(ctx, s.opts.Logf, "query.plan")
	planStart := time.Now()
	prep, cacheHit, err := eng.Prepare(req.Query)
	planTime := time.Since(planStart)
	planSpan.Set("cache_hit", cacheHit)
	planSpan.End()
	if err != nil {
		s.met.queries.With("parse_error").Inc()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.queryPlanSeconds.Observe(planTime.Seconds())
	if cacheHit {
		s.met.queryPlanCacheHits.Inc()
	} else {
		s.met.queryPlanCacheMisses.Inc()
	}

	ectx, execSpan := obs.StartSpan(pctx, s.opts.Logf, "query.exec")
	res, err := eng.Execute(ectx, prep, query.ExecOptions{Limit: limit})
	if err != nil {
		execSpan.Set("error", err)
		execSpan.End()
		s.met.queries.With("error").Inc()
		// The request context ended: the client is gone, the status is moot.
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	execSpan.Set("rows", len(res.Rows))
	execSpan.Set("truncated", res.Truncated)
	execSpan.End()
	res.Stats.CacheHit = cacheHit
	res.Stats.PlanTime = planTime
	s.met.queryExecSeconds.Observe(res.Stats.ExecTime.Seconds())
	s.met.queryRows.Add(uint64(len(res.Rows)))
	outcome := "ok"
	if res.Truncated {
		outcome = "truncated"
	}
	s.met.queries.With(outcome).Inc()

	writeJSON(w, http.StatusOK, QueryResponse{
		Snapshot:  snapID,
		Vars:      res.Vars,
		Rows:      res.Rows,
		Truncated: res.Truncated,
		Reason:    res.Reason,
		Stats:     res.Stats,
	})
}

// engineFor returns the query engine over snapID's union KB, building and
// caching it on first use; concurrent first queries of one snapshot share
// one build. The build needs the snapshot's ontology pair — the aligner's
// retained pair when it matches, otherwise the same lineage reconstruction
// delta jobs use — and deep-copies everything it keeps, so the cached
// engine stays valid while later delta jobs extend the ontologies in place.
func (s *Server) engineFor(ctx context.Context, snapID string) (*query.Engine, error) {
	// Callers that arrive during the build wait on it, so one client's
	// disconnect must not cancel it under them.
	ctx = context.WithoutCancel(ctx)
	return buildOnce(s, s.engines, maxQueryEngines, snapID, func() (*query.Engine, error) {
		return s.buildEngine(ctx, snapID)
	})
}

// buildEngine builds snapID's union KB and a query engine over it.
func (s *Server) buildEngine(ctx context.Context, snapID string) (*query.Engine, error) {
	// deltaMu serializes against delta jobs: they mutate the cached
	// ontology pair in place, and query.Build must observe a consistent
	// view of it. The build copies what it keeps, so the lock is released
	// before the engine serves anything.
	s.deltaMu.Lock()
	o1, o2, err := s.ontologiesForLocked(ctx, snapID)
	if err != nil {
		s.deltaMu.Unlock()
		return nil, err
	}
	snap, err := diskstore.LoadSnapshot(s.store, snapID)
	if err != nil {
		s.deltaMu.Unlock()
		if errors.Is(err, diskstore.ErrNotFound) {
			return nil, errors.New("snapshot retired while building its union KB")
		}
		return nil, err
	}
	kb, err := query.Build(o1, o2, snap, query.Options{})
	s.deltaMu.Unlock()
	if err != nil {
		return nil, err
	}
	s.opts.Logf("server: built union KB for %s: %d clusters, %d statements",
		snapID, kb.NumClusters(), kb.NumStatements())
	return query.NewEngine(kb, 0), nil
}
