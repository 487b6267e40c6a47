package query_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

func TestParse(t *testing.T) {
	q, err := query.Parse(`?x a <http://e/Film> . ?x <http://e/directedBy> ?d .`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(q.Patterns))
	}
	if got := q.Patterns[0].P.Value; got != rdf.RDFType {
		t.Fatalf("'a' predicate = %q, want rdf:type", got)
	}
	if want := []string{"x", "d"}; len(q.Vars) != 2 || q.Vars[0] != want[0] || q.Vars[1] != want[1] {
		t.Fatalf("vars = %v, want %v", q.Vars, want)
	}

	q, err = query.Parse(`?x <http://e/name> "say \"hi\"\n\t\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Patterns[0].O.Value; got != "say \"hi\"\n\t\\" {
		t.Fatalf("literal = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"spaces only", "   "},
		{"variable predicate", `?x ?p ?y`},
		{"literal predicate", `?x "p" ?y`},
		{"unterminated iri", `?x <http://e/p ?y`},
		{"unterminated literal", `?x <http://e/p> "abc`},
		{"bad escape", `?x <http://e/p> "a\q"`},
		{"newline in literal", "?x <http://e/p> \"a\nb\""},
		{"missing dot", `?x <http://e/p> ?y ?z <http://e/p> ?w`},
		{"empty var", `? <http://e/p> ?y`},
		{"empty iri", `?x <> ?y`},
		{"space in iri", `?x <http://e/p q> ?y`},
		{"bare word", `x <http://e/p> ?y`},
		{"truncated pattern", `?x <http://e/p>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := query.Parse(tc.src)
			var pe *query.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q) err = %v, want *ParseError", tc.src, err)
			}
		})
	}

	// Bounds: too many patterns, too many vars, oversized query.
	var b strings.Builder
	for i := 0; i <= query.MaxPatterns; i++ {
		if i > 0 {
			b.WriteString(" . ")
		}
		fmt.Fprintf(&b, "?x <http://e/p%d> ?y", i)
	}
	if _, err := query.Parse(b.String()); err == nil {
		t.Fatal("MaxPatterns not enforced")
	}
	b.Reset()
	for i := 0; i <= query.MaxVars/2; i++ {
		if i > 0 {
			b.WriteString(" . ")
		}
		fmt.Fprintf(&b, "?a%d <http://e/p> ?b%d", i, i)
	}
	if _, err := query.Parse(b.String()); err == nil {
		t.Fatal("MaxVars not enforced")
	}
	if _, err := query.Parse("?x <http://e/p> \"" + strings.Repeat("a", query.MaxQueryLen) + "\""); err == nil {
		t.Fatal("MaxQueryLen not enforced")
	}
}

func TestShapeNormalization(t *testing.T) {
	a, err := query.Parse(`?x <http://e/p> ?y . ?y <http://e/q> "v"`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := query.Parse(`?foo <http://e/p> ?bar . ?bar <http://e/q> "v"`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Shape() != b.Shape() {
		t.Fatalf("renamed vars change shape:\n%s\n%s", a.Shape(), b.Shape())
	}
	c, err := query.Parse(`?x <http://e/p> ?y . ?y <http://e/q> "w"`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Shape() == c.Shape() {
		t.Fatal("different constants share a shape")
	}
	// 'a' is sugar for the rdf:type IRI, so both spell the same shape.
	d1, _ := query.Parse(`?x a <http://e/C>`)
	d2, _ := query.Parse(`?x <` + rdf.RDFType + `> <http://e/C>`)
	if d1.Shape() != d2.Shape() {
		t.Fatal("'a' and explicit rdf:type differ in shape")
	}
}

const (
	tns1 = "http://one.example/"
	tns2 = "http://two.example/"
)

// tinyKB builds a two-KB union by hand: alice/film1 in KB one are aligned
// with a9/f9 in KB two, directed ⊆ directedBy⁻¹ bridges the relation
// spelling difference, and Film ⊆ Movie bridges the classes.
func tinyKB(t testing.TB) *query.KB {
	t.Helper()
	lits := store.NewLiterals()
	b1 := store.NewBuilder("one", lits, nil)
	b2 := store.NewBuilder("two", lits, nil)
	add := func(b *store.Builder, tr rdf.Triple) {
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	i1 := func(l string) rdf.Term { return rdf.IRI(tns1 + l) }
	i2 := func(l string) rdf.Term { return rdf.IRI(tns2 + l) }
	typ := rdf.IRI(rdf.RDFType)

	add(b1, rdf.T(i1("alice"), i1("directed"), i1("film1")))
	add(b1, rdf.T(i1("alice"), i1("name"), rdf.Literal("Alice")))
	add(b1, rdf.T(i1("film1"), typ, i1("Film")))
	add(b1, rdf.T(i1("bob"), i1("knows"), i1("alice")))
	add(b1, rdf.T(i1("bob"), i1("knows"), i1("carol")))
	add(b1, rdf.T(i1("carol"), i1("name"), rdf.Literal("Carol")))

	add(b2, rdf.T(i2("f9"), i2("directedBy"), i2("a9")))
	add(b2, rdf.T(i2("a9"), i2("label"), rdf.Literal("Alice")))
	add(b2, rdf.T(i2("f9"), typ, i2("Movie")))

	snap := &core.ResultSnapshot{
		KB1: "one", KB2: "two",
		Instances: []core.SnapshotAssignment{
			{Key1: "<" + tns1 + "alice>", Key2: "<" + tns2 + "a9>", P: 0.95},
			{Key1: "<" + tns1 + "film1>", Key2: "<" + tns2 + "f9>", P: 0.9},
		},
		Relations12: []core.SnapshotRelation{
			{Sub: tns1 + "directed", Super: tns2 + "directedBy⁻¹", P: 0.8},
			{Sub: tns1 + "directed⁻¹", Super: tns2 + "directedBy", P: 0.8},
		},
		Relations21: []core.SnapshotRelation{
			{Sub: tns2 + "directedBy⁻¹", Super: tns1 + "directed", P: 0.8},
		},
		Classes12: []core.SnapshotClass{
			{Sub: "<" + tns1 + "Film>", Super: "<" + tns2 + "Movie>", P: 0.7},
		},
	}
	kb, err := query.Build(b1.Build(), b2.Build(), snap, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func rowStrings(rows [][]query.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "\t")
	}
	return out
}

func TestUnionQueries(t *testing.T) {
	kb := tinyKB(t)
	e := query.NewEngine(kb, 0)
	ctx := context.Background()

	run := func(src string) *query.Result {
		t.Helper()
		res, err := e.Query(ctx, src, query.ExecOptions{})
		if err != nil {
			t.Fatalf("Query(%q): %v", src, err)
		}
		return res
	}

	// The sub-relation expansion folds KB two's inverted directedBy facts
	// into a KB-one-spelled query (and vice versa); sameAs dedup collapses
	// the two sources into one row.
	res := run(`?d <` + tns1 + `directed> ?m`)
	if len(res.Rows) != 1 {
		t.Fatalf("directed rows = %v", rowStrings(res.Rows))
	}
	got := rowStrings(res.Rows)[0]
	for _, want := range []string{"alice", "a9", "film1", "f9"} {
		if !strings.Contains(got, want) {
			t.Fatalf("row %q missing %q", got, want)
		}
	}
	if res2 := run(`?m <` + tns2 + `directedBy> ?d`); len(res2.Rows) != 1 {
		t.Fatalf("directedBy rows = %v", rowStrings(res2.Rows))
	}

	// Literal object constant.
	if res := run(`?x <` + tns1 + `name> "Alice"`); len(res.Rows) != 1 ||
		!strings.Contains(rowStrings(res.Rows)[0], "a9") {
		t.Fatalf("name rows = %v", rowStrings(res.Rows))
	}
	// Inverse predicate: literal in subject position.
	if res := run(`"Alice" <` + tns1 + `name⁻¹> ?x`); len(res.Rows) != 1 {
		t.Fatalf("name⁻¹ rows = %v", rowStrings(res.Rows))
	}

	// Class constant expands through the cross-KB subclass table: Movie
	// covers KB one's Film instances too (one merged cluster here).
	if res := run(`?x a <` + tns2 + `Movie>`); len(res.Rows) != 1 {
		t.Fatalf("a Movie rows = %v", rowStrings(res.Rows))
	}
	if res := run(`?x a <` + tns1 + `Film>`); len(res.Rows) != 1 {
		t.Fatalf("a Film rows = %v", rowStrings(res.Rows))
	}

	// Cross-KB join through sameAs: knows lives only in KB one, label only
	// in KB two — the row exists in neither KB alone.
	res = run(`?b <` + tns1 + `knows> ?a . ?a <` + tns2 + `label> ?n`)
	if len(res.Rows) != 1 {
		t.Fatalf("cross-KB rows = %v", rowStrings(res.Rows))
	}
	if got := rowStrings(res.Rows)[0]; !strings.Contains(got, "bob") || !strings.Contains(got, `"Alice"`) {
		t.Fatalf("cross-KB row = %q", got)
	}

	// Unknown predicate / unknown constant: empty result, no error.
	if res := run(`?x <` + tns1 + `nope> ?y`); len(res.Rows) != 0 {
		t.Fatalf("unknown predicate rows = %v", rowStrings(res.Rows))
	}
	if res := run(`<` + tns1 + `zed> <` + tns1 + `name> ?n`); len(res.Rows) != 0 {
		t.Fatalf("unknown subject rows = %v", rowStrings(res.Rows))
	}
	// Repeated variable never matches a non-reflexive relation.
	if res := run(`?x <` + tns1 + `knows> ?x`); len(res.Rows) != 0 {
		t.Fatalf("reflexive rows = %v", rowStrings(res.Rows))
	}
}

func TestRowLimit(t *testing.T) {
	kb := tinyKB(t)
	e := query.NewEngine(kb, 0)
	ctx := context.Background()
	src := `?b <` + tns1 + `knows> ?p`

	res, err := e.Query(ctx, src, query.ExecOptions{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Truncated || res.Reason != "row limit" {
		t.Fatalf("limit 1: rows=%d truncated=%v reason=%q", len(res.Rows), res.Truncated, res.Reason)
	}
	// A limit equal to the result size is not a truncation.
	res, err = e.Query(ctx, src, query.ExecOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Truncated {
		t.Fatalf("limit 2: rows=%d truncated=%v", len(res.Rows), res.Truncated)
	}
}

// bigKB is a single-KB union with enough statements that the executor's
// periodic context checks actually fire.
func bigKB(t testing.TB) *query.KB {
	t.Helper()
	lits := store.NewLiterals()
	b1 := store.NewBuilder("big", lits, nil)
	b2 := store.NewBuilder("empty", lits, nil)
	for i := 0; i < 1500; i++ {
		tr := rdf.T(
			rdf.IRI(fmt.Sprintf("http://big.example/x%04d", i)),
			rdf.IRI("http://big.example/r"),
			rdf.IRI(fmt.Sprintf("http://big.example/y%02d", i%40)),
		)
		if err := b1.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := b2.Add(rdf.T(rdf.IRI("http://big.example/only"), rdf.IRI("http://big.example/s"),
		rdf.Literal("x"))); err != nil {
		t.Fatal(err)
	}
	kb, err := query.Build(b1.Build(), b2.Build(), nil, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestCancellationAndDeadline(t *testing.T) {
	kb := bigKB(t)
	e := query.NewEngine(kb, 0)
	src := `?a <http://big.example/r> ?x . ?b <http://big.example/r> ?x`

	// An explicit cancellation aborts with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, src, query.ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query err = %v, want context.Canceled", err)
	}

	// An expired deadline returns the partial rows, marked truncated.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	res, err := e.Query(dctx, src, query.ExecOptions{})
	if err != nil {
		t.Fatalf("deadline query err = %v, want partial result", err)
	}
	if !res.Truncated || res.Reason != "time limit" {
		t.Fatalf("deadline result: truncated=%v reason=%q", res.Truncated, res.Reason)
	}
	full, err := e.Query(context.Background(), src, query.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) >= len(full.Rows) {
		t.Fatalf("deadline rows = %d, full rows = %d; want a strict partial", len(res.Rows), len(full.Rows))
	}
}

func TestPlanCacheLRU(t *testing.T) {
	kb := tinyKB(t)
	e := query.NewEngine(kb, 2)
	qa := `?x <` + tns1 + `name> ?n`
	qb := `?x <` + tns1 + `knows> ?y`
	qc := `?x <` + tns2 + `label> ?n`

	mustPrep := func(src string) bool {
		t.Helper()
		_, hit, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	if mustPrep(qa) || mustPrep(qb) {
		t.Fatal("first preparations reported a cache hit")
	}
	if !mustPrep(qa) {
		t.Fatal("repeat preparation missed")
	}
	// Same shape under renamed variables hits too.
	if !mustPrep(`?who <` + tns1 + `name> ?what`) {
		t.Fatal("renamed-variable preparation missed")
	}
	// Capacity 2: inserting a third shape evicts the least recent (qb).
	mustPrep(qc)
	if mustPrep(qb) {
		t.Fatal("evicted shape reported a cache hit")
	}
	hits, misses := e.CacheStats()
	if hits != 2 || misses != 4 {
		t.Fatalf("cache stats = %d hits / %d misses, want 2/4", hits, misses)
	}
}

// TestPlanCacheHitsBeatColdPlanning is the CI guard for the plan cache's
// reason to exist: repeated shapes must prepare faster through the cache
// than through cold planning.
func TestPlanCacheHitsBeatColdPlanning(t *testing.T) {
	kb := tinyKB(t)
	src := `?d <` + tns1 + `directed> ?m . ?m a <` + tns2 + `Movie> . ` +
		`?d <` + tns1 + `name> ?n . ?b <` + tns1 + `knows> ?d . ` +
		`?m <` + tns2 + `directedBy> ?d . ?d <` + tns2 + `label> ?n`
	const reps = 300

	cold := time.Duration(0)
	for i := 0; i < reps; i++ {
		e := query.NewEngine(kb, 1)
		start := time.Now()
		if _, hit, err := e.Prepare(src); err != nil || hit {
			t.Fatalf("cold prepare: hit=%v err=%v", hit, err)
		}
		cold += time.Since(start)
	}

	e := query.NewEngine(kb, 1)
	if _, _, err := e.Prepare(src); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, hit, err := e.Prepare(src); err != nil || !hit {
			t.Fatalf("warm prepare: hit=%v err=%v", hit, err)
		}
	}
	warm := time.Since(start)

	if warm >= cold {
		t.Fatalf("plan-cache hits (%v for %d reps) not faster than cold planning (%v)", warm, reps, cold)
	}
	t.Logf("%d preparations: cold %v, cached %v (%.1fx)", reps, cold, warm, float64(cold)/float64(warm))
}

// TestPlanCacheHitDoesNotReplan: the first Prepare of a shape plans it, and
// every later Prepare of that shape, under any variable names, is a hit that
// plans nothing. Counting planner calls catches a hit that re-plans every
// time, where comparing times catches it only when planning is slow.
func TestPlanCacheHitDoesNotReplan(t *testing.T) {
	kb := tinyKB(t)
	e := query.NewEngine(kb, 0)
	before := kb.PlanCalls()
	const reps = 50
	for i := 0; i < reps; i++ {
		src := fmt.Sprintf(`?d%d <%sdirected> ?m%d . ?m%d a <%sMovie> . ?d%d <%sname> ?n%d`,
			i, tns1, i, i, tns2, i, tns1, i)
		if _, hit, err := e.Prepare(src); err != nil || hit != (i > 0) {
			t.Fatalf("prepare %d: hit=%v err=%v, want hit=%v", i, hit, err, i > 0)
		}
	}
	if got := kb.PlanCalls() - before; got != 1 {
		t.Fatalf("%d preparations of one shape planned %d times, want 1", reps, got)
	}
}

// TestPlanCacheSingleFlight: concurrent first preparations of one shape
// plan it once; the callers that arrive while it is planned wait for that
// plan and count as hits. Each round bursts 8 callers at a new shape, so a
// cache that lets two of them plan is caught with near certainty.
func TestPlanCacheSingleFlight(t *testing.T) {
	kb := tinyKB(t)
	e := query.NewEngine(kb, 0)
	const callers, rounds = 8, 100
	for r := 0; r < rounds; r++ {
		src := fmt.Sprintf(`?d <%sdirected> ?m . ?m a <%sMovie> . ?b <%sknows> ?d . `+
			`?m <%sdirectedBy> ?d . ?d <%slabel> ?n . ?d <%sname> "n%d"`, tns1, tns2, tns1, tns2, tns2, tns1, r)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, _, err := e.Prepare(src); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		hits, misses := e.CacheStats()
		if want := uint64(r + 1); misses != want || hits != want*(callers-1) {
			t.Fatalf("round %d: cache stats = %d hits / %d misses, want %d/%d",
				r, hits, misses, want*(callers-1), want)
		}
	}
}

func TestEngineConcurrency(t *testing.T) {
	kb := tinyKB(t)
	e := query.NewEngine(kb, 2)
	queries := []string{
		`?d <` + tns1 + `directed> ?m`,
		`?x <` + tns1 + `name> ?n`,
		`?b <` + tns1 + `knows> ?a . ?a <` + tns2 + `label> ?n`,
		`?x a <` + tns2 + `Movie>`,
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if _, err := e.Query(context.Background(), queries[(g+i)%len(queries)], query.ExecOptions{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
