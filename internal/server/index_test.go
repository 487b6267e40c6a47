package server

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/literal"
)

// TestBuildIndexReverseCollision pins the deterministic reverse-map policy:
// when several ontology-1 entities share one ontology-2 match (Instances is
// an argmax, not a matching), the reverse lookup returns the highest-P
// entity, ties broken by smallest key — never map-iteration order.
func TestBuildIndexReverseCollision(t *testing.T) {
	snap := &core.ResultSnapshot{
		KB1: "a", KB2: "b",
		Instances: []core.SnapshotAssignment{
			{Key1: "<a:z>", Key2: "<b:shared>", P: 0.4},
			{Key1: "<a:y>", Key2: "<b:shared>", P: 0.9},
			{Key1: "<a:x>", Key2: "<b:shared>", P: 0.9},
		},
	}
	ix := buildIndex("snap-00000001", snap)
	m, ok := ix.lookup(false, "<b:shared>")
	if !ok || m.Key != "<a:x>" || m.P != 0.9 {
		t.Fatalf("reverse lookup = %+v, %v; want <a:x> at 0.9", m, ok)
	}
	// Forward entries are unaffected.
	for _, a := range snap.Instances {
		if got, ok := ix.lookup(true, a.Key1); !ok || got.Key != "<b:shared>" {
			t.Fatalf("forward lookup %s = %+v, %v", a.Key1, got, ok)
		}
	}
	// All three canonical keys stay reachable through the normalized map.
	if got := ix.lookupNormalized(false, "b:SHARED"); len(got) != 1 {
		t.Fatalf("normalized reverse = %v", got)
	}
}

// worldSnapshot aligns the world corpus once for the tests that need a
// realistic key set.
var worldSnapshot = sync.OnceValues(func() (*core.ResultSnapshot, error) {
	o1, o2, err := gen.World(gen.WorldConfig{Seed: 7}).Build(nil)
	if err != nil {
		return nil, err
	}
	return core.New(o1, o2, core.Config{}).Run().Snapshot(), nil
})

// eagerNormalized builds the folded-key maps the way buildIndex did before
// they were built on first use: one walk over the assignments, normRev
// taking each Key2 the first time it appears.
func eagerNormalized(snap *core.ResultSnapshot) (normFwd, normRev map[string][]string) {
	normFwd = make(map[string][]string)
	normRev = make(map[string][]string)
	seen := make(map[string]bool)
	for _, a := range snap.Instances {
		n1 := literal.AlphaNumString(a.Key1)
		normFwd[n1] = append(normFwd[n1], a.Key1)
		if !seen[a.Key2] {
			seen[a.Key2] = true
			n2 := literal.AlphaNumString(a.Key2)
			normRev[n2] = append(normRev[n2], a.Key2)
		}
	}
	return normFwd, normRev
}

// keyForms returns the spellings of a canonical key a client may send: as
// stored, bare (no angle brackets), and upper-cased.
func keyForms(key string) []string {
	return []string{key, strings.TrimSuffix(strings.TrimPrefix(key, "<"), ">"), strings.ToUpper(key)}
}

// TestLookupNormalizedMatchesEagerMaps checks that the maps built on first
// use answer every normalized lookup exactly as the eagerly built maps
// did, match order included, for every key of an aligned world snapshot
// and of a small snapshot whose keys collide under the fold.
func TestLookupNormalizedMatchesEagerMaps(t *testing.T) {
	world, err := worldSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	collide := &core.ResultSnapshot{
		KB1: "a", KB2: "b",
		Instances: []core.SnapshotAssignment{
			{Key1: "<a:Elvis>", Key2: "<b:X-1>", P: 0.5},
			{Key1: "<a:elvis>", Key2: "<b:x_1>", P: 0.9},
			{Key1: "<a:ELVIS!>", Key2: "<b:X-1>", P: 0.7},
			{Key1: "<a:priscilla>", Key2: "<b:x1>", P: 0.6},
			{Key1: "<a:Zürich>", Key2: "<b:ZÜRICH>", P: 0.8},
		},
	}
	for _, tc := range []struct {
		name string
		snap *core.ResultSnapshot
	}{{"world", world}, {"collide", collide}} {
		snap := tc.snap
		t.Run(tc.name, func(t *testing.T) {
			ix := buildIndex("snap-00000001", snap)
			normFwd, normRev := eagerNormalized(snap)
			want := func(fwd bool, key string) []Match {
				norm, exact := normFwd, ix.fwd
				if !fwd {
					norm, exact = normRev, ix.rev
				}
				var out []Match
				for _, canonical := range norm[literal.AlphaNumString(key)] {
					if hit, ok := exact[canonical]; ok {
						out = append(out, hit)
					}
				}
				return out
			}
			checked := 0
			for _, a := range snap.Instances {
				for _, dir := range []struct {
					fwd bool
					key string
				}{{true, a.Key1}, {false, a.Key2}} {
					for _, form := range keyForms(dir.key) {
						got, exp := ix.lookupNormalized(dir.fwd, form), want(dir.fwd, form)
						if len(exp) == 0 || !slices.Equal(got, exp) {
							t.Fatalf("lookupNormalized(%v, %q) = %v, want %v", dir.fwd, form, got, exp)
						}
						checked++
					}
				}
			}
			t.Logf("%d assignments, %d lookups checked", len(snap.Instances), checked)
		})
	}
	// The collisions above are answered in snapshot order, with a repeated
	// Key2 listed once.
	ix := buildIndex("snap-00000002", collide)
	got := ix.lookupNormalized(false, "B:X1")
	want := []Match{{Key: "<a:ELVIS!>", P: 0.7}, {Key: "<a:elvis>", P: 0.9}, {Key: "<a:priscilla>", P: 0.6}}
	if !slices.Equal(got, want) {
		t.Fatalf("reverse fold collision = %v, want %v", got, want)
	}
}

// TestLookupNormalizedConcurrentFirstUse makes the first normalized lookup
// on a fresh index from 8 goroutines at once: the maps are built once and
// every caller gets the same answers. Run it under -race.
func TestLookupNormalizedConcurrentFirstUse(t *testing.T) {
	world, err := worldSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIndex("snap-00000001", world)
	var builds atomic.Int32
	testNormalizedBuilt = func(built *index) {
		if built == ix {
			builds.Add(1)
		}
	}
	t.Cleanup(func() { testNormalizedBuilt = nil })

	var keys []string
	for i, a := range world.Instances {
		if i%50 == 0 {
			keys = append(keys, keyForms(a.Key1)...)
		}
	}
	const readers = 8
	answers := make([][][]Match, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, key := range keys {
				answers[r] = append(answers[r], ix.lookupNormalized(true, key))
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("normalized maps built %d times, want 1", n)
	}
	for r := 1; r < readers; r++ {
		for i := range keys {
			if !slices.Equal(answers[r][i], answers[0][i]) {
				t.Fatalf("reader %d: lookupNormalized(%q) = %v, reader 0 got %v", r, keys[i], answers[r][i], answers[0][i])
			}
		}
	}
	for i, key := range keys {
		if len(answers[0][i]) == 0 {
			t.Fatalf("lookupNormalized(%q) found nothing", key)
		}
	}
}

var benchIndex *index

// BenchmarkBuildIndex times indexing the world snapshot, as every publish,
// restart and pinned-read miss does, and the same followed by the first
// normalized lookup, which builds the folded-key maps.
func BenchmarkBuildIndex(b *testing.B) {
	world, err := worldSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	key := strings.ToUpper(world.Instances[0].Key1)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchIndex = buildIndex("snap-00000001", world)
		}
	})
	b.Run("build+normalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(buildIndex("snap-00000001", world).lookupNormalized(true, key)) == 0 {
				b.Fatalf("normalized lookup of %q found nothing", key)
			}
		}
	})
}
