package shard_test

// Router telemetry tests: a trace ID injected by the client crosses the
// router onto the shard (the shard's span logs the same trace with the
// router's span as parent), and the router's /metrics exposition carries
// the per-shard fan-out and epoch families.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
)

// logSink collects log lines concurrently and extracts span attributes.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *logSink) logf(format string, args ...any) {
	s.mu.Lock()
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// spans returns the span log lines mentioning the given trace ID.
func (s *logSink) spans(traceID string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, l := range s.lines {
		if strings.HasPrefix(l, "span ") && strings.Contains(l, "trace="+traceID) {
			out = append(out, l)
		}
	}
	return out
}

// spanAttr pulls one key=value attribute off a span log line.
func spanAttr(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

func TestRouterTracePropagation(t *testing.T) {
	d := gen.Persons(gen.PersonsConfig{N: 40, Seed: 7})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{}).Run()

	// One plain parisd behind the router: it holds the full index, so a
	// 1-way "fleet" serves every key — enough to watch the trace hop.
	var shardLog, routerLog logSink
	srv, err := server.New(server.Options{StateDir: t.TempDir(), Logf: shardLog.logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	if _, err := srv.PublishResult(res); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter([]string{ts.URL}, shard.WithLogf(routerLog.logf))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One GET (proxy path) and one batch POST (scatter path), both under
	// the same client-minted trace.
	tr := obs.NewTrace()
	key := d.Gold.Pairs()[0][0]
	for _, do := range []func() (*http.Request, error){
		func() (*http.Request, error) {
			return http.NewRequest(http.MethodGet, rts.URL+"/v1/sameas?kb=1&key="+url.QueryEscape(key), nil)
		},
		func() (*http.Request, error) {
			return http.NewRequest(http.MethodPost, rts.URL+"/v1/sameas",
				strings.NewReader(batchBody("1", []string{key})))
		},
	} {
		req, err := do()
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceHeader, tr.String())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d", req.Method, req.URL.Path, resp.StatusCode)
		}
	}

	// The router logs four spans per trace — two http spans (proxy GET,
	// scatter POST) plus one "shard" fan-out span under each.
	routerSpans := routerLog.spans(tr.TraceID)
	if len(routerSpans) != 4 {
		t.Fatalf("router logged %d spans for the trace, want 4 (2 http + 2 shard):\n%s",
			len(routerSpans), strings.Join(routerSpans, "\n"))
	}
	shardSpans := shardLog.spans(tr.TraceID)
	if len(shardSpans) != 2 {
		t.Fatalf("shard logged %d spans for the trace, want 2 (proxy + scatter):\n%s",
			len(shardSpans), strings.Join(shardSpans, "\n"))
	}
	// Parenting: the router's http spans are children of the client's span,
	// its shard spans children of those, and the shard process's http spans
	// children of the router's shard spans — never of the client directly.
	httpSpanIDs := map[string]bool{}
	fanoutSpanIDs := map[string]bool{}
	for _, l := range routerSpans {
		switch name := spanAttr(l, "name"); name {
		case "http":
			if got := spanAttr(l, "parent"); got != tr.SpanID {
				t.Errorf("router http span parent %q, want client span %q: %s", got, tr.SpanID, l)
			}
			httpSpanIDs[spanAttr(l, "span")] = true
		case "shard":
			fanoutSpanIDs[spanAttr(l, "span")] = true
		default:
			t.Errorf("unexpected router span name %q: %s", name, l)
		}
	}
	for _, l := range routerSpans {
		if spanAttr(l, "name") == "shard" {
			if parent := spanAttr(l, "parent"); !httpSpanIDs[parent] {
				t.Errorf("router shard span parent %q is not a router http span: %s", parent, l)
			}
		}
	}
	for _, l := range shardSpans {
		if parent := spanAttr(l, "parent"); !fanoutSpanIDs[parent] {
			t.Errorf("shard span parent %q is not a router shard span (%v): %s", parent, fanoutSpanIDs, l)
		}
	}

	// The router's exposition carries the HTTP, fan-out, and epoch families.
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`paris_router_http_requests_total{route="GET /v1/sameas",method="GET",code="200"} 1`,
		`paris_router_http_requests_total{route="POST /v1/sameas",method="POST",code="200"} 1`,
		`paris_router_shard_request_seconds_count{shard="0",replica="0"} 2`,
		"paris_router_epoch_seq 1",
		"paris_router_epoch_flips_total 1",
		"paris_router_lookups_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}
	if strings.Contains(text, `paris_router_shard_errors_total{shard="0",replica="0"}`) {
		t.Errorf("error counter recorded for a healthy shard:\n%s", text)
	}
}

// TestRouterShardErrorNamesShardWithTiming kills the only shard and checks
// the router's errors name the shard and carry the attempt duration, on
// both the proxy and the scatter path.
func TestRouterShardErrorNamesShardWithTiming(t *testing.T) {
	srv, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { srv.Close() })
	d := gen.Persons(gen.PersonsConfig{N: 10, Seed: 7})
	o1, o2, _ := d.Build(nil)
	if _, err := srv.PublishResult(core.New(o1, o2, core.Config{}).Run()); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter([]string{ts.URL}, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close() // the fleet goes dark after the epoch is set

	r := get(t, rts.URL, "/v1/sameas?kb=1&key=x")
	if r.code != http.StatusBadGateway ||
		!strings.Contains(string(r.body), "shard 0 unreachable after ") {
		t.Fatalf("proxy error: %d %s", r.code, r.body)
	}
	r = post(t, rts.URL, "/v1/sameas", batchBody("1", []string{"x"}))
	if r.code != http.StatusBadGateway ||
		!strings.Contains(string(r.body), "shard 0 after ") {
		t.Fatalf("scatter error: %d %s", r.code, r.body)
	}

	var b strings.Builder
	rt.MetricsRegistry().WriteText(&b)
	if !strings.Contains(b.String(), `paris_router_shard_errors_total{shard="0",replica="0"} 2`) {
		t.Errorf("shard error counter missing:\n%s", b.String())
	}
}

// TestRouterShardHTTPErrorIsAnAnswer: a shard's own HTTP error is an answer
// on both read paths. A bogus kb draws the shard's 400 through the proxy
// and the scatter path alike, and neither counts as a transport failure:
// no shard error series appears, and no attempt span fails, so the
// recorder retains no error trace.
func TestRouterShardHTTPErrorIsAnAnswer(t *testing.T) {
	srv, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	d := gen.Persons(gen.PersonsConfig{N: 10, Seed: 7})
	o1, o2, _ := d.Build(nil)
	if _, err := srv.PublishResult(core.New(o1, o2, core.Config{}).Run()); err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter([]string{ts.URL}, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	if r := get(t, rts.URL, "/v1/sameas?kb=bogus&key=x"); r.code != http.StatusBadRequest {
		t.Fatalf("proxy: %d %s, want 400", r.code, r.body)
	}
	if r := post(t, rts.URL, "/v1/sameas", `{"kb":"bogus","keys":["x"]}`); r.code != http.StatusBadRequest {
		t.Fatalf("scatter: %d %s, want 400", r.code, r.body)
	}

	noShardErrors(t, rt)
}

// TestRouterReadyz: the router is alive from the start but not ready until
// its first epoch flip — the readiness gate of a rolling deploy.
func TestRouterReadyz(t *testing.T) {
	srv, err := server.New(server.Options{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	rt, err := shard.NewRouter([]string{ts.URL}, shard.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	if r := get(t, rts.URL, "/v1/healthz"); r.code != http.StatusOK {
		t.Fatalf("healthz before epoch: %d", r.code)
	}
	if r := get(t, rts.URL, "/v1/readyz"); r.code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before epoch: %d %s", r.code, r.body)
	}

	// The shard has no snapshot either, so a refresh cannot flip the epoch.
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r := get(t, rts.URL, "/v1/readyz"); r.code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty fleet: %d %s", r.code, r.body)
	}

	d := gen.Persons(gen.PersonsConfig{N: 10, Seed: 7})
	o1, o2, _ := d.Build(nil)
	if _, err := srv.PublishResult(core.New(o1, o2, core.Config{}).Run()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := get(t, rts.URL, "/v1/readyz")
	if r.code != http.StatusOK {
		t.Fatalf("readyz after epoch flip: %d %s", r.code, r.body)
	}
	if !strings.Contains(string(r.body), rt.Epoch()) {
		t.Errorf("readyz body %s does not name the epoch %q", r.body, rt.Epoch())
	}
}
