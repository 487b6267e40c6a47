package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/diskstore"
	"repro/internal/obs"
	"repro/internal/server"
)

// The router rejects oversized batches with the shard servers' own bounds
// (and therefore the same messages a single process would produce).
const (
	maxBatchKeys = server.MaxBatchKeys
	maxBatchBody = server.MaxBatchBody
)

// minHedgeDelay floors the adaptive hedge budget: with no latency history
// the route family's p99 reads 0, and hedging every request instantly
// would double the fleet's read load for nothing.
const minHedgeDelay = time.Millisecond

// defaultShardClient returns the router's default HTTP client: the stock
// transport keeps only two idle connections per host, so a router fanning
// every batch out to the same few shards under load would churn TCP
// connections; raise the per-host idle pool to keep the scatter path on
// warm connections.
func defaultShardClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap; the per-host cap governs
	tr.MaxIdleConnsPerHost = 256
	return &http.Client{Transport: tr}
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithHTTPClient substitutes the *http.Client used for shard requests
// (timeouts, connection pooling, middleware).
func WithHTTPClient(h *http.Client) RouterOption {
	return func(rt *Router) { rt.httpc = h }
}

// WithLogf installs a logger; the default discards.
func WithLogf(f func(format string, args ...any)) RouterOption {
	return func(rt *Router) { rt.logf = f }
}

// WithHedgeDelay fixes the latency budget after which a read hedges to a
// second replica, instead of tracking the route family's sliding p99
// (tests, or deployments with a known latency SLO).
func WithHedgeDelay(d time.Duration) RouterOption {
	return func(rt *Router) { rt.hedgeFixed = d }
}

// WithRateLimit enables per-client token-bucket rate limiting: rps
// sustained requests per second per client (keyed by the first
// X-Forwarded-For hop, else the remote address), bursting to burst
// (default 2×rps). Over-limit requests answer 429 with a Retry-After
// header. rps <= 0 leaves limiting off.
func WithRateLimit(rps float64, burst int) RouterOption {
	return func(rt *Router) {
		if rps > 0 {
			rt.limiter = newRateLimiter(rps, burst)
		}
	}
}

// Router is the stateless front of a sharded deployment: it owns no index,
// only the shard topology and a routing epoch. Each partition is a replica
// set — shardURLs[i] may name several replicas, all holding slice i — and
// reads route to the group owning the queried key: the preferred replica
// first, a hedge to the next once the route's latency budget expires, and
// an immediate failover on transport error, so a one-replica-down group
// keeps serving the same bytes. Batch lookups scatter-gather across the
// owning groups with per-group contexts. Every read without an explicit
// ?snapshot= is pinned to the routing epoch — the newest snapshot version
// every group has acknowledged — so a publish in flight never produces a
// torn cross-shard view. Refresh advances the epoch, and only forward.
type Router struct {
	part   Partitioner
	groups []*group
	httpc  *http.Client
	logf   func(format string, args ...any)

	hedgeFixed time.Duration // 0 = adaptive (route-family p99)
	limiter    *rateLimiter  // nil = no rate limiting

	// epochMu serializes epoch advancement; readers go through the atomic.
	epochMu sync.Mutex
	epoch   atomic.Value // string; "" before the first acknowledged version

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in rate-limit + telemetry middleware
	reg     *obs.Registry
	met     *routerMetrics
	col     *obs.Collector // flight recorder for the scatter path
}

// NewRouter builds a router over the shard topology, in shard-index order:
// shardURLs[i] is the replica group for slice i — one base URL, or several
// comma-separated ones, each a shard started with -shard i/N where N is
// len(shardURLs).
func NewRouter(shardURLs []string, opts ...RouterOption) (*Router, error) {
	part, err := NewPartitioner(len(shardURLs))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	rt := &Router{
		part:  part,
		httpc: defaultShardClient(),
		logf:  func(string, ...any) {},
		reg:   reg,
		met:   newRouterMetrics(reg),
		col:   obs.NewCollector(obs.CollectorConfig{}),
	}
	rt.met.http.AttachCollector(rt.col)
	rt.epoch.Store("")
	for _, opt := range opts {
		opt(rt)
	}
	for i, element := range shardURLs {
		urls := splitReplicaGroup(element)
		if len(urls) == 0 {
			return nil, fmt.Errorf("shard %d: empty replica group", i)
		}
		g := &group{}
		for j, u := range urls {
			peer, err := client.New(u, client.WithHTTPClient(rt.httpc))
			if err != nil {
				return nil, fmt.Errorf("shard %d replica %d: %w", i, j, err)
			}
			rep := &replica{idx: j, url: u, peer: peer}
			// Optimistic until the first poll or request says otherwise.
			rep.healthy.Store(true)
			g.replicas = append(g.replicas, rep)
		}
		rt.groups = append(rt.groups, g)
	}
	rt.buildMux()
	return rt, nil
}

// Shards returns the number of shard groups behind the router.
func (rt *Router) Shards() int { return len(rt.groups) }

// Epoch returns the routing epoch: the snapshot ID unpinned reads resolve
// against, empty before any version has been acknowledged by every group.
func (rt *Router) Epoch() string { return rt.epoch.Load().(string) }

// checkShardCoords validates one shard's self-reported i/N against its
// position. A plain parisd (no shard coordinates in its stats) passes
// unchecked: it holds a full index, any position works.
func checkShardCoords(stats map[string]any, pos, count int, desc string) error {
	sh, ok := stats["shard"].(map[string]any)
	if !ok {
		return nil
	}
	idx, _ := sh["index"].(float64)
	cnt, _ := sh["count"].(float64)
	if int(idx) != pos || int(cnt) != count {
		return fmt.Errorf("shard: shard order mismatch: position %d is %s, which reports shard %d/%d (want %d/%d)",
			pos, desc, int(idx), int(cnt), pos, count)
	}
	return nil
}

// Refresh recomputes the routing epoch: the newest snapshot version (by
// sequence number — snapshot IDs never compare as strings, the zero-padded
// width overflows at seq 100,000,000) acknowledged by at least one replica
// of every group, polled concurrently. It is phase two of the two-phase
// publish — the epoch flips only once every group holds the version, and
// it never moves backward. Every pass re-checks each reachable replica's
// self-reported -shard i/N coordinates against its group (a replica
// restarted mid-life with swapped flags would otherwise misroute
// silently), refreshes per-replica health and version knowledge for the
// read path's replica selection, and tolerates unreachable replicas: only
// a group with no reachable replica at all leaves the epoch untouched and
// returns an error.
func (rt *Router) Refresh(ctx context.Context) (string, error) {
	type report struct {
		list  client.SnapshotList
		stats map[string]any
		err   error
	}
	reports := make([][]report, len(rt.groups))
	var wg sync.WaitGroup
	for gi, g := range rt.groups {
		reports[gi] = make([]report, len(g.replicas))
		for ri, rep := range g.replicas {
			wg.Add(1)
			go func(r *report, rep *replica) {
				defer wg.Done()
				if r.stats, r.err = rep.peer.Stats(ctx); r.err != nil {
					return
				}
				r.list, r.err = rep.peer.Snapshots(ctx)
			}(&reports[gi][ri], rep)
		}
	}
	wg.Wait()
	// acked[id] counts groups where at least one replica lists id.
	acked := map[string]int{}
	for gi, g := range rt.groups {
		groupHolds := map[string]bool{}
		reachable := 0
		var lastErr error
		for ri, rep := range g.replicas {
			r := &reports[gi][ri]
			if r.err != nil {
				rep.healthy.Store(false)
				lastErr = fmt.Errorf("shard %d replica %d (%s): %w", gi, ri, rep.url, r.err)
				continue
			}
			// Coordinate mismatch is a hard error, not a health problem:
			// the topology is misconfigured and every key this group owns
			// is suspect.
			if err := checkShardCoords(r.stats, gi, len(rt.groups), rep.url); err != nil {
				return rt.Epoch(), err
			}
			rep.healthy.Store(true)
			reachable++
			held := make(map[string]bool, len(r.list.Snapshots))
			for _, info := range r.list.Snapshots {
				held[info.ID] = true
				groupHolds[info.ID] = true
			}
			rep.held.Store(held)
		}
		if reachable == 0 {
			return rt.Epoch(), lastErr
		}
		for id := range groupHolds {
			acked[id]++
		}
	}
	best, bestSeq := "", uint64(0)
	for id, n := range acked {
		if n != len(rt.groups) {
			continue
		}
		seq, err := diskstore.ParseSnapshotID(id)
		if err != nil {
			continue
		}
		if best == "" || seq > bestSeq {
			best, bestSeq = id, seq
		}
	}
	if best == "" {
		return rt.Epoch(), nil
	}
	rt.epochMu.Lock()
	defer rt.epochMu.Unlock()
	cur := rt.Epoch()
	curSeq := uint64(0)
	if cur != "" {
		curSeq, _ = diskstore.ParseSnapshotID(cur)
	}
	if cur == "" || bestSeq > curSeq {
		rt.epoch.Store(best)
		rt.met.epochFlip(best)
		rt.logf("router: epoch %s -> %s", cur, best)
	}
	return rt.Epoch(), nil
}

// Handler returns the router's HTTP API: the /v1 read surface of a parisd,
// served scatter-gather, plus POST /v1/refresh to advance the epoch — all
// wrapped in the rate-limit middleware (when configured) and the telemetry
// middleware, so every request is counted, timed, and traced (an inbound
// X-Paris-Trace continues through the fan-out).
func (rt *Router) Handler() http.Handler { return rt.handler }

// MetricsRegistry exposes the router's metrics registry for the daemon's
// -debug-addr listener and in-process scrapes.
func (rt *Router) MetricsRegistry() *obs.Registry { return rt.reg }

// Recorder exposes the router's flight recorder for the daemon's
// -debug-addr listener (GET /debug/traces).
func (rt *Router) Recorder() *obs.Collector { return rt.col }

func (rt *Router) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sameas", rt.handleSameAs)
	mux.HandleFunc("POST /v1/sameas", rt.handleSameAsBatch)
	mux.HandleFunc("GET /v1/relations", rt.handleScores)
	mux.HandleFunc("GET /v1/classes", rt.handleScores)
	mux.HandleFunc("GET /v1/snapshots", rt.handleSnapshots)
	mux.HandleFunc("POST /v1/refresh", rt.handleRefresh)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Pure liveness; readiness (a routable epoch) is /v1/readyz.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		// The router can serve unpinned reads only after its first epoch
		// flip — before that every lookup would 503 anyway.
		epoch := rt.Epoch()
		if epoch == "" {
			httpError(w, http.StatusServiceUnavailable, "no routing epoch yet")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "epoch": epoch})
	})
	mux.HandleFunc("GET /v1/fleet/metrics", rt.handleFleetMetrics)
	mux.HandleFunc("GET /v1/fleet/stats", rt.handleFleetStats)
	mux.HandleFunc("GET /v1/slo", rt.handleSLO)
	// The trace surfaces also live on the main listener: the client's
	// TraceTree and the fleet walkthrough reach the router without a
	// -debug-addr, and shards expose the same by-ID route for stitching.
	mux.Handle("GET /debug/traces", rt.tracesHandler())
	mux.HandleFunc("GET /debug/traces/{trace}", rt.handleTraceByID)
	mux.Handle("GET /metrics", obs.MetricsHandler(rt.reg))
	rt.mux = mux
	route := func(r *http.Request) string {
		_, pattern := mux.Handler(r)
		return pattern
	}
	var inner http.Handler = mux
	if rt.limiter != nil {
		// Inside the telemetry middleware, so 429s are counted and timed
		// like every other response.
		inner = rt.limiter.middleware(rt.met, inner)
	}
	rt.handler = rt.met.http.Middleware(route, rt.logf, inner)
}

// hedgeDelay resolves the latency budget after which a read hedges to a
// second replica: the fixed WithHedgeDelay override when set, otherwise
// the route family's sliding p99 from the flight recorder, floored at
// minHedgeDelay while the window is still cold.
func (rt *Router) hedgeDelay(r *http.Request) time.Duration {
	if rt.hedgeFixed > 0 {
		return rt.hedgeFixed
	}
	_, family := rt.mux.Handler(r)
	d := time.Duration(rt.col.Threshold(family) * float64(time.Millisecond))
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d
}

// pinned resolves the snapshot a read should be served from: the explicit
// ?snapshot= when given, otherwise the routing epoch. ok is false (and the
// 503 a snapshot-less single process would send has been written) when
// neither exists.
func (rt *Router) pinned(w http.ResponseWriter, q url.Values) (pin string, ok bool) {
	if pin = q.Get("snapshot"); pin != "" {
		return pin, true
	}
	if pin = rt.Epoch(); pin == "" {
		// Mirror the single-process read path before any snapshot exists.
		httpError(w, http.StatusServiceUnavailable, "no completed alignment yet")
		return "", false
	}
	return pin, true
}

// handleSameAs routes one lookup to the group owning the key and relays
// the winning replica's response verbatim — the sharded answer is
// byte-identical to the single-process one.
func (rt *Router) handleSameAs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pin, ok := rt.pinned(w, q)
	if !ok {
		return
	}
	q.Set("snapshot", pin)
	rt.met.lookups.Inc()
	rt.proxy(w, r, rt.part.Owner(q.Get("key")), q)
}

// handleScores serves /v1/relations and /v1/classes. Every snapshot slice
// carries the full schema-level tables (they are schema-sized, not
// KB-sized), so group 0 answers for the whole deployment.
func (rt *Router) handleScores(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pin, ok := rt.pinned(w, q)
	if !ok {
		return
	}
	q.Set("snapshot", pin)
	rt.proxy(w, r, 0, q)
}

// hopByHopHeaders are the connection-scoped response headers a relay must
// not forward (RFC 9110 §7.6.1); everything else copies verbatim, so a
// routed response carries the shard's headers byte-for-byte.
var hopByHopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// relay copies one shard response through to the client: every header
// except the hop-by-hop set (the "relays the shard's response verbatim"
// contract — Content-Length included, so framing matches the shard's),
// then the status and body.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		if !hopByHopHeaders[k] {
			h[k] = vv
		}
	}
	w.WriteHeader(resp.StatusCode)
	// The status line is written; a copy error has nowhere to go.
	_, _ = io.Copy(w, resp.Body)
}

// attempt is the outcome of one replica try.
type attempt[T any] struct {
	idx      int // position in the candidate order
	val      T
	err      error
	answered bool // the replica answered: err is nil or the shard's *client.Error
	dur      time.Duration
	hedged   bool
}

// race sends one read to the replicas of a shard group with hedged
// failover: the preferred replica first, a hedge to the next replica once
// budget expires, an immediate failover on a transport error. The first
// answer wins — a response, or an HTTP error the shard reported, which
// every replica would report the same — and the losers are canceled and
// drained off-path, discard (when non-nil) releasing any answer they still
// produce. Only a transport failure counts against a replica: it fails the
// attempt's span and raises the per-replica error counter. An attempt whose
// context was canceled before it answered — a hedge loser, a sibling
// sub-batch of a batch another group already failed, a client gone — is no
// failure: its span is tagged canceled instead. Each attempt gets its own
// child span — a merged router+shard trace reads http → shard → http —
// tagged with the batch size when keys > 0, and is timed into the
// per-replica histogram.
//
// Once ctx is done, race launches no hedge and no failover: it waits for
// the attempts in flight, which ctx cancels, and returns the last. The
// winner's context stays alive until the caller calls release, so a
// streamed body can still be read. When every replica failed, race returns
// the last attempt, with its transport error and duration.
func race[T any](ctx context.Context, rt *Router, shard int, pin string, budget time.Duration, keys int,
	try func(context.Context, *replica) (T, error), discard func(T)) (win attempt[T], release context.CancelFunc) {
	cands := rt.groups[shard].candidates(pin)
	results := make(chan attempt[T], len(cands))
	cancels := make([]context.CancelFunc, len(cands))
	launched, received := 0, 0
	launch := func(hedged bool) {
		rep, idx := cands[launched], launched
		launched++
		actx, cancel := context.WithCancel(ctx)
		cancels[idx] = cancel
		if hedged {
			rt.met.hedges.Inc()
		}
		go func() {
			sctx, sp := obs.StartSpan(actx, rt.logf, "shard")
			sp.Set("shard", shard)
			sp.Set("replica", rep.idx)
			if keys > 0 {
				sp.Set("keys", keys)
			}
			if hedged {
				sp.Set("hedge", true)
			}
			start := time.Now()
			val, err := try(sctx, rep)
			a := attempt[T]{idx: idx, val: val, err: err, answered: err == nil || isServerError(err),
				dur: time.Since(start), hedged: hedged}
			canceled := !a.answered && errors.Is(actx.Err(), context.Canceled)
			failed := !a.answered && !canceled
			rt.met.shardDone(shard, rep.idx, a.dur.Seconds(), failed)
			rep.noteOutcome(err)
			if failed {
				sp.Fail(err)
			} else if canceled {
				sp.Set("canceled", true)
			}
			sp.End()
			results <- a
		}()
	}
	launch(false)
	hedge := time.NewTimer(budget)
	defer hedge.Stop()
	for {
		select {
		case <-hedge.C:
			if launched < len(cands) && ctx.Err() == nil {
				launch(true)
			}
		case a := <-results:
			received++
			if a.answered {
				if a.hedged {
					rt.met.hedgeWins.Inc()
				}
				for i := 0; i < launched; i++ {
					if i != a.idx {
						cancels[i]()
					}
				}
				if remaining := launched - received; remaining > 0 {
					go func() {
						for i := 0; i < remaining; i++ {
							if la := <-results; la.answered && discard != nil {
								discard(la.val)
							}
						}
					}()
				}
				return a, cancels[a.idx]
			}
			cancels[a.idx]()
			if launched < len(cands) && ctx.Err() == nil {
				rt.met.failovers.Inc()
				launch(false)
			} else if received == launched {
				return a, func() {}
			}
		}
	}
}

// proxy relays the request through the race to the group owning it. The
// winning replica's response relays verbatim, a shard-reported HTTP error
// included; only a group whose every replica failed at the transport layer
// answers 502.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, shard int, q url.Values) {
	target := r.URL.Path
	if len(q) > 0 {
		target += "?" + q.Encode()
	}
	a, release := race(r.Context(), rt, shard, q.Get("snapshot"), rt.hedgeDelay(r), 0,
		func(ctx context.Context, rep *replica) (*http.Response, error) {
			req, err := http.NewRequestWithContext(ctx, r.Method, rep.url+target, nil)
			if err != nil {
				return nil, err
			}
			obs.Inject(ctx, req.Header)
			return rt.httpc.Do(req)
		},
		func(resp *http.Response) { resp.Body.Close() })
	defer release()
	if !a.answered {
		// The attempt duration makes slow-vs-failed readable from the
		// message alone: "after 10s: context deadline exceeded" is a
		// timeout, "after 2ms: connection refused" a dead group.
		httpError(w, http.StatusBadGateway, "shard %d unreachable after %s: %v",
			shard, a.dur.Round(100*time.Microsecond), a.err)
		return
	}
	relay(w, a.val)
}

// subBatch sends one group's sub-batch through the race. The winner's
// answer is decoded in full, so its context is released at once.
func (rt *Router) subBatch(ctx context.Context, shard int, budget time.Duration, req client.BatchSameAsQuery) attempt[client.BatchSameAsResponse] {
	a, release := race(ctx, rt, shard, req.Snapshot, budget, len(req.Keys),
		func(ctx context.Context, rep *replica) (client.BatchSameAsResponse, error) {
			return rep.peer.SameAsBatch(ctx, req)
		}, nil)
	release()
	return a
}

// batchRequest mirrors the shard servers' POST /v1/sameas request body.
type batchRequest struct {
	KB   string   `json:"kb"`
	Keys []string `json:"keys"`
}

// batchResponse mirrors the shard servers' POST /v1/sameas response body,
// field for field, so the reassembled scatter-gather answer is
// byte-identical to a single process serving the unsplit snapshot.
type batchResponse struct {
	Snapshot string                     `json:"snapshot"`
	KB       string                     `json:"kb"`
	Found    int                        `json:"found"`
	Results  []client.BatchSameAsResult `json:"results"`
}

// handleSameAsBatch scatter-gathers one batch lookup: keys group by owning
// shard group, per-group sub-batches fan out concurrently (each under its
// own cancelable context — the first failure cancels the stragglers — and
// each hedged across the group's replicas), and the per-key answers
// reassemble in request order.
func (rt *Router) handleSameAsBatch(w http.ResponseWriter, r *http.Request) {
	explicit := r.URL.Query().Get("snapshot") != ""
	pin, ok := rt.pinned(w, r.URL.Query())
	if !ok {
		return
	}
	// A single process resolves the snapshot before it looks at the body,
	// so an unknown explicit pin must win over any body problem for the
	// error paths to stay byte-identical. The router cannot know the pin
	// without a shard, so it probes one only when a local rejection is
	// about to diverge — the happy path pays nothing.
	reject := func(code int, format string, args ...any) {
		if explicit && !rt.pinExists(r.Context(), pin) {
			httpError(w, http.StatusNotFound, "unknown snapshot %q", pin)
			return
		}
		httpError(w, code, format, args...)
	}
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req); err != nil {
		reject(http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Keys) == 0 {
		reject(http.StatusBadRequest, "keys must not be empty")
		return
	}
	if len(req.Keys) > maxBatchKeys {
		reject(http.StatusBadRequest, "at most %d keys per batch (got %d)", maxBatchKeys, len(req.Keys))
		return
	}
	rt.met.lookups.Add(uint64(len(req.Keys)))

	// Group keys by owning shard group, remembering every key's request
	// position so answers reassemble in order.
	groupKeys := make([][]string, len(rt.groups))
	groupPos := make([][]int, len(rt.groups))
	for i, key := range req.Keys {
		o := rt.part.Owner(key)
		groupKeys[o] = append(groupKeys[o], key)
		groupPos[o] = append(groupPos[o], i)
	}

	budget := rt.hedgeDelay(r)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	replies := make([]attempt[client.BatchSameAsResponse], len(rt.groups))
	var wg sync.WaitGroup
	for i := range rt.groups {
		if len(groupKeys[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = rt.subBatch(ctx, i, budget, client.BatchSameAsQuery{
				KB: req.KB, Keys: groupKeys[i], Snapshot: pin,
			})
			if replies[i].err != nil {
				// Cancel the sibling sub-batches: the batch is already
				// doomed, no point finishing the fan-out.
				cancel()
			}
		}(i)
	}
	wg.Wait()

	// Propagate failures deterministically: a server-reported error (every
	// shard would report the same invalid kb or unknown snapshot) beats a
	// transport error, and a genuine transport error beats the
	// context-canceled ripple it caused on the sibling sub-batches — the
	// reported shard must be the one that actually failed, not a healthy
	// cancellation victim. Ties go to the lowest shard index.
	var transportErr error
	transportShard := -1
	for i := range replies {
		err := replies[i].err
		if err == nil {
			continue
		}
		var se *client.Error
		if errors.As(err, &se) {
			httpError(w, se.StatusCode, "%s", se.Message)
			return
		}
		if transportErr == nil ||
			(errors.Is(transportErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			transportErr, transportShard = err, i
		}
	}
	if transportErr != nil {
		httpError(w, http.StatusBadGateway, "shard %d after %s: %v",
			transportShard, replies[transportShard].dur.Round(100*time.Microsecond), transportErr)
		return
	}

	out := batchResponse{
		Snapshot: pin, KB: req.KB,
		Results: make([]client.BatchSameAsResult, len(req.Keys)),
	}
	for i := range replies {
		if len(groupKeys[i]) == 0 {
			continue
		}
		if got, want := len(replies[i].val.Results), len(groupPos[i]); got != want {
			httpError(w, http.StatusBadGateway, "shard %d returned %d results for %d keys", i, got, want)
			return
		}
		for j, pos := range groupPos[i] {
			out.Results[pos] = replies[i].val.Results[j]
		}
		out.Found += replies[i].val.Found
	}
	writeJSON(w, http.StatusOK, out)
}

// snapshotList fetches the deployment's snapshot list from group 0 with
// replica failover (publication pushes every version to every group, so
// any one group knows them all). A server-reported error returns without
// failover: the replica answered, its siblings would answer the same.
func (rt *Router) snapshotList(ctx context.Context) (client.SnapshotList, error) {
	var lastErr error
	for _, rep := range rt.groups[0].candidates("") {
		list, err := rep.peer.Snapshots(ctx)
		rep.noteOutcome(err)
		if err == nil || isServerError(err) {
			return list, err
		}
		lastErr = err
	}
	return client.SnapshotList{}, lastErr
}

// pinExists reports whether an explicitly pinned snapshot exists on the
// deployment. A probe failure counts as existing — the caller's local
// error then stands, which is also what an unreachable fleet would
// surface.
func (rt *Router) pinExists(ctx context.Context, pin string) bool {
	list, err := rt.snapshotList(ctx)
	if err != nil {
		return true
	}
	for _, info := range list.Snapshots {
		if info.ID == pin {
			return true
		}
	}
	return false
}

// handleSnapshots reports the deployment's snapshot versions with the
// router's epoch as "current" — a version pushed but not yet acknowledged
// everywhere is listed, but not current.
func (rt *Router) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	list, err := rt.snapshotList(r.Context())
	if err != nil {
		httpError(w, http.StatusBadGateway, "shard 0: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshots": list.Snapshots, "current": rt.Epoch(),
	})
}

// handleRefresh triggers an epoch advance check (POST /v1/refresh), the
// hook a publisher calls after pushing slices to every group.
func (rt *Router) handleRefresh(w http.ResponseWriter, r *http.Request) {
	epoch, err := rt.Refresh(r.Context())
	if err != nil {
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"epoch": epoch})
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	replicas, healthy := 0, 0
	groups := make([]map[string]any, len(rt.groups))
	for i, g := range rt.groups {
		h := g.healthyCount()
		replicas += len(g.replicas)
		healthy += h
		groups[i] = map[string]any{"replicas": len(g.replicas), "healthy": h}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"router": map[string]any{
			"shards":   len(rt.groups),
			"replicas": replicas,
			"healthy":  healthy,
			"groups":   groups,
			"epoch":    rt.Epoch(),
			"lookups":  rt.met.lookups.Value(),
		},
	})
}

// writeJSON and httpError mirror the shard servers' encoders exactly
// (Content-Type, HTML escaping, trailing newline), so routed and direct
// responses are byte-identical.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
