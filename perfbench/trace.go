package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed unit recorded by the benchmark's own wrappers: a client
// request, or one handler invocation of a parisd or parisrouter. Spans of
// one request share the trace ID the client stamped in X-Paris-Trace, which
// the router propagates to the replicas.
type span struct {
	Name   string `json:"name"`  // client, parisd, router, or a replica's instance name
	Route  string `json:"route"` // method and path
	Trace  string `json:"trace"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	Stream bool   `json:"stream,omitempty"` // an SSE watch, open for a whole job
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the report is written. Recording is
// switched on only for the traced part of a run.
type spanLog struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// record adds a span named name over [start, end] for trace tr.
func (l *spanLog) record(name, route string, tr obs.Trace, start, end time.Time, stream bool) {
	l.add(span{
		Name: name, Route: route, Trace: tr.TraceID, Parent: tr.SpanID,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Stream: stream,
	})
}

// wrap times every request h serves while recording is on. Requests
// without a trace header (health probes, the router's epoch polls) are not
// recorded.
func (l *spanLog) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		tr, ok := obs.Extract(req.Header)
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		if ok {
			stream := strings.Contains(req.Header.Get("Accept"), "text/event-stream")
			l.record(name, req.Method+" "+req.URL.Path, tr, start, end, stream)
		}
	})
}

// traceBreakdown is the per-layer split of the traced requests.
type traceBreakdown struct {
	handlerMs   []float64 // parisd handler spans (replicas in a fleet)
	transportMs []float64 // client span minus the outermost handler span
	routerSelf  time.Duration
	upstream    time.Duration
	client      time.Duration // client time of routed requests
	batchFanout []int         // replica spans per routed batch
}

// breakdown groups the recorded spans by trace. A trace's outermost
// handler is the router's span when there is one, else the parisd's; the
// router's self time is its span minus the union of its replicas' handler
// spans, so it includes the transport of its upstream round trips.
func breakdown(spans []span) traceBreakdown {
	byTrace := map[string][]span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var b traceBreakdown
	for _, group := range byTrace {
		var cl, router *span
		var servers []span
		for i := range group {
			switch s := &group[i]; s.Name {
			case "client":
				cl = s
			case "router":
				router = s
			default:
				servers = append(servers, *s)
			}
		}
		for _, s := range servers {
			if !s.Stream {
				b.handlerMs = append(b.handlerMs, ms(s.dur()))
			}
		}
		if cl == nil || cl.Stream {
			continue
		}
		outer := router
		if outer == nil && len(servers) == 1 {
			outer = &servers[0]
		}
		if outer != nil {
			b.transportMs = append(b.transportMs, ms(cl.dur()-outer.dur()))
		}
		if router != nil {
			up := union(servers, router.Start, router.End)
			b.upstream += up
			b.routerSelf += router.dur() - up
			b.client += cl.dur()
			if strings.HasPrefix(router.Route, "POST ") {
				b.batchFanout = append(b.batchFanout, len(servers))
			}
		}
	}
	return b
}

// union is the length of [lo, hi] covered by at least one span.
func union(spans []span, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setSpanLayers records the layer metrics the spans give.
func (r *run) setSpanLayers(spans []span) {
	b := breakdown(spans)
	sort.Float64s(b.handlerMs)
	sort.Float64s(b.transportMs)
	r.set("server.handler_p50_ms", percentile(b.handlerMs, 0.5), "ms")
	r.set("server.handler_p99_ms", percentile(b.handlerMs, 0.99), "ms")
	r.set("client.transport_p50_ms", percentile(b.transportMs, 0.5), "ms")
	self, up := 0.0, 0.0
	if b.client > 0 {
		self = float64(b.routerSelf) / float64(b.client)
		up = float64(b.upstream) / float64(b.client)
	}
	r.set("shard.router_self_share", self, "ratio")
	r.set("shard.upstream_share", up, "ratio")
	fan := 0.0
	if len(b.batchFanout) > 0 {
		n := 0
		for _, f := range b.batchFanout {
			n += f
		}
		fan = float64(n) / float64(len(b.batchFanout))
	}
	r.set("shard.fanout_per_batch", fan, "count")
	r.set("bench.spans", float64(len(spans)), "count")
	r.note("traced: %d handler spans, %d client/handler pairs; router self %.3f ms and upstream %.3f ms over %.3f ms of routed client time",
		len(b.handlerMs), len(b.transportMs), ms(b.routerSelf), ms(b.upstream), ms(b.client))
}
