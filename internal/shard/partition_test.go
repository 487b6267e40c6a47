package shard

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/rdf"
)

// TestParseSpec is the table-driven contract of the -shard i/N flag,
// including the rejection of mismatched shard coordinates.
func TestParseSpec(t *testing.T) {
	tests := []struct {
		in      string
		want    Spec
		wantErr bool
	}{
		{in: "0/1", want: Spec{Index: 0, Count: 1}},
		{in: "1/3", want: Spec{Index: 1, Count: 3}},
		{in: "2/3", want: Spec{Index: 2, Count: 3}},
		{in: "15/16", want: Spec{Index: 15, Count: 16}},
		{in: "3/3", wantErr: true},  // index == count
		{in: "4/3", wantErr: true},  // index beyond count
		{in: "-1/3", wantErr: true}, // negative index
		{in: "0/0", wantErr: true},  // empty deployment
		{in: "1/0", wantErr: true},
		{in: "0/-2", wantErr: true},
		{in: "1", wantErr: true}, // no separator
		{in: "", wantErr: true},
		{in: "a/b", wantErr: true},
		{in: "1/3/5", wantErr: true},
		{in: "1 /3", wantErr: true},
		{in: "1.0/3", wantErr: true},
	}
	for _, tc := range tests {
		got, err := ParseSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("Spec%+v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
}

// TestNewPartitionerRejectsCounts checks count validation, the other half
// of the mismatched-shard-count guard.
func TestNewPartitionerRejectsCounts(t *testing.T) {
	for _, n := range []int{0, -1, -16} {
		if _, err := NewPartitioner(n); err == nil {
			t.Errorf("NewPartitioner(%d) succeeded, want error", n)
		}
	}
	p, err := NewPartitioner(5)
	if err != nil || p.Count() != 5 {
		t.Fatalf("NewPartitioner(5) = %v (count %d)", err, p.Count())
	}
}

// TestPartitionerStableAssignment pins the assignment function: it must be
// a pure function of (key, count) so restarts, rebuilds, and independent
// router replicas agree. The golden values guard against an accidental
// change of hash or fold — which would silently strand every persisted
// shard slice on the wrong shard.
func TestPartitionerStableAssignment(t *testing.T) {
	golden := []struct {
		key   string
		n     int
		owner int
	}{
		{key: "<http://ykbfilm.example.org/movie_0001>", n: 3, owner: 1},
		{key: "<http://ikb.example.org/title/tt0001>", n: 3, owner: 1},
		{key: "<http://person1.example.org/person42>", n: 3, owner: 1},
		{key: "<http://person1.example.org/person42>", n: 5, owner: 1},
		{key: "", n: 3, owner: 2},
		// Non-ASCII keys take the fold's Unicode path; these owners were
		// recorded with the rune-by-rune fold, before the ASCII fast path.
		{key: "<http://dbpedia.org/resource/Zürich>", n: 3, owner: 0},
		{key: "<http://dbpedia.org/resource/Zürich>", n: 5, owner: 1},
		{key: "<http://dbpedia.org/resource/İstanbul>", n: 3, owner: 0},
		{key: "<http://dbpedia.org/resource/İstanbul>", n: 5, owner: 2},
		{key: "<http://el.example.org/ΣΟΦΙΑ>", n: 3, owner: 0},
		{key: "<http://el.example.org/ΣΟΦΙΑ>", n: 5, owner: 1},
		{key: "<http://example.org/item/１２>", n: 3, owner: 0}, // fullwidth 12
		{key: "<http://example.org/item/１２>", n: 5, owner: 3},
		{key: "<http://ar.example.org/١٢>", n: 3, owner: 0}, // Arabic-Indic 12
		{key: "<http://ar.example.org/١٢>", n: 5, owner: 4},
		{key: "<http://example.org/temp/300\u212a>", n: 3, owner: 2}, // Kelvin sign folds to k
		{key: "<http://example.org/temp/300\u212a>", n: 5, owner: 0},
		{key: "<http://example.org/bad\xffbyte>", n: 3, owner: 0}, // invalid UTF-8
		{key: "<http://example.org/bad\xffbyte>", n: 5, owner: 1},
	}
	for _, tc := range golden {
		p, err := NewPartitioner(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Owner(tc.key); got != tc.owner {
			t.Errorf("Owner(%q) over %d shards = %d, want %d (hash or fold changed? persisted slices would strand)",
				tc.key, tc.n, got, tc.owner)
		}
		// A second instance (a "restart") agrees, as do repeated calls.
		q, _ := NewPartitioner(tc.n)
		for i := 0; i < 3; i++ {
			if q.Owner(tc.key) != p.Owner(tc.key) {
				t.Fatalf("Owner(%q) unstable across instances", tc.key)
			}
		}
	}
}

// TestPartitionerColocatesSpellings checks that every spelling the serving
// index would resolve to one canonical entry — bracketed, bare, case- and
// punctuation-drifted — routes to the same shard, the invariant that keeps
// sharded normalized lookups byte-identical to single-process ones.
func TestPartitionerColocatesSpellings(t *testing.T) {
	p, err := NewPartitioner(7)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]string{
		{"<http://a/Elvis_Presley>", "http://a/Elvis_Presley", "HTTP://A/ELVIS-PRESLEY", "http a elvis presley"},
		{"<http://ikb.example.org/name/nm0042>", "http://ikb.example.org/name/nm0042", "<HTTP://IKB.EXAMPLE.ORG/NAME/NM0042>"},
	}
	for _, g := range groups {
		want := p.Owner(g[0])
		for _, key := range g[1:] {
			if got := p.Owner(key); got != want {
				t.Errorf("Owner(%q) = %d, but Owner(%q) = %d; spellings of one entity must co-locate",
					key, got, g[0], want)
			}
		}
	}
}

// TestPartitionerSkew bounds the distribution skew on 100k synthetic entity
// keys drawn from the parisgen movie corpus: every shard must stay within
// 5% of the uniform share, for 3- and 5-shard deployments.
func TestPartitionerSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 100k-entity corpus")
	}
	d := gen.Movies(gen.MoviesConfig{Seed: 3, People: 40000, Movies: 12000})
	seen := make(map[string]bool, 120000)
	collect := func(triples []rdf.Triple) {
		for _, tr := range triples {
			if key := tr.Subject.Key(); !seen[key] {
				seen[key] = true
			}
		}
	}
	collect(d.Triples1)
	collect(d.Triples2)
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	for len(keys) < 100000 {
		// Pad with keys in the generators' IRI style; entity counts drift
		// slightly with presence sampling.
		keys = append(keys, fmt.Sprintf("<http://ykbfilm.example.org/pad_%06d>", len(keys)))
	}
	keys = keys[:100000]
	t.Logf("distributing %d distinct keys", len(keys))

	for _, n := range []int{3, 5} {
		p, err := NewPartitioner(n)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for _, key := range keys {
			o := p.Owner(key)
			if o < 0 || o >= n {
				t.Fatalf("Owner(%q) = %d out of [0, %d)", key, o, n)
			}
			counts[o]++
		}
		ideal := float64(len(keys)) / float64(n)
		for i, c := range counts {
			skew := (float64(c) - ideal) / ideal
			if skew < -0.05 || skew > 0.05 {
				t.Errorf("%d shards: shard %d holds %d keys, %.1f%% off uniform (bound 5%%)",
					n, i, c, 100*skew)
			}
		}
		t.Logf("%d shards: %v (ideal %.0f)", n, counts, ideal)
	}
}
