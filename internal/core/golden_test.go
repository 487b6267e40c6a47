package core

// Golden digests pin the fixpoint's output bit for bit. Each case runs a
// full alignment on a generated corpus and hashes the binary snapshot with
// the wall-clock fields zeroed, so any change to the arithmetic or the
// iteration order of Equations (12)–(14) shows up as a digest mismatch.
// A kernel rewrite that claims identical output must leave every digest
// here untouched.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
	"repro/internal/store"
)

// goldenDigest hashes the snapshot of res with its timings zeroed.
func goldenDigest(t *testing.T, res *Result) (string, *ResultSnapshot) {
	t.Helper()
	snap := res.Snapshot()
	hashed := *snap
	hashed.Iterations = append([]IterationStats(nil), snap.Iterations...)
	for i := range hashed.Iterations {
		hashed.Iterations[i].InstanceTime = 0
		hashed.Iterations[i].RelationTime = 0
	}
	hashed.ClassTime = 0
	data, err := hashed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), snap
}

func buildGolden(t *testing.T, d *gen.Dataset) (*store.Ontology, *store.Ontology) {
	t.Helper()
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	return o1, o2
}

// TestFixpointGolden runs on every architecture. The digests were recorded
// on amd64, where Go never fuses x*y+z into one rounding; the kernel rounds
// each such product with an explicit float64 conversion, so arm64 and the
// other fusing architectures compute the same bits (CI checks the arm64
// listing for fused instructions).
func TestFixpointGolden(t *testing.T) {
	check := func(t *testing.T, res *Result, want string) *ResultSnapshot {
		t.Helper()
		got, snap := goldenDigest(t, res)
		if got != want {
			t.Errorf("snapshot digest\n got %s\nwant %s", got, want)
		}
		return snap
	}

	t.Run("world", func(t *testing.T) {
		const want = "a1beb7362cdd2ce1a20d8fb34bfd4ee4cea0bf2f7970a328b8050eacc0135b7a"
		o1, o2 := buildGolden(t, gen.World(gen.WorldConfig{Seed: 1}))
		check(t, New(o1, o2, Config{MaxIterations: 4, Workers: 1}).Run(), want)
		snap := check(t, New(o1, o2, Config{MaxIterations: 4}).Run(), want)

		// A warm start from the converged world snapshot over the same
		// ontologies exercises the seeded relation rows.
		a, err := NewWarm(o1, o2, Config{MaxIterations: 4}, snap)
		if err != nil {
			t.Fatal(err)
		}
		check(t, a.Run(), "2d278af935a219a5d84f36dcc522f8d180542167e4fbb712c45d16fea8b6172d")
	})
	t.Run("persons", func(t *testing.T) {
		o1, o2 := buildGolden(t, gen.Persons(gen.PersonsConfig{N: 500, Seed: 3}))
		check(t, New(o1, o2, Config{}).Run(), "b8bf43f7b4990a25be99ac33b3eaea7fb5d68e5c9180316783d519ae8d891ad3")
	})
	t.Run("movies", func(t *testing.T) {
		o1, o2 := buildGolden(t, gen.Movies(gen.MoviesConfig{Seed: 2, People: 600, Movies: 200}))
		check(t, New(o1, o2, Config{NegativeEvidence: true}).Run(), "cff6e81c1f6762f2e95d2665627dad5eb661a016c3c5cb24b912bb80ecbe9b9f")
		check(t, New(o1, o2, Config{AllEqualities: true}).Run(), "9538ef2cd6fb8ab8d49df38a0f0a23b8b0d6bc9445c2e8425c3f8b5fcb1addb2")
	})
	t.Run("restaurants", func(t *testing.T) {
		o1, o2 := buildGolden(t, gen.Restaurants(gen.RestaurantsConfig{Seed: 5}))
		check(t, New(o1, o2, Config{}).Run(), "3688dc200fb3086bdf0b0456d870527c3b2d58dd09f39ef65510784afae61ae1")
	})
}
