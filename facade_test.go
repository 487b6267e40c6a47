package paris

// Tests for the facade functions that previously had no direct coverage:
// gzip-transparent LoadFile and LoadGoldTSV parsing.

import (
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// gzipFile writes content to path gzip-compressed.
func gzipFile(t *testing.T, path, content string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFileGzip checks that .nt.gz inputs load identically to their
// uncompressed form — large real KB dumps (DBpedia, YAGO; Section 6 of the
// paper) ship gzipped.
func TestLoadFileGzip(t *testing.T) {
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "kb1.nt")
	gzPath := filepath.Join(dir, "kb1z.nt.gz")
	if err := os.WriteFile(plainPath, []byte(kb1), 0o644); err != nil {
		t.Fatal(err)
	}
	gzipFile(t, gzPath, kb1)

	lits := NewLiterals()
	plain, err := LoadFile(plainPath, "plain", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	zipped, err := LoadFile(gzPath, "zipped", lits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumFacts() != zipped.NumFacts() || plain.NumResources() != zipped.NumResources() {
		t.Fatalf("gzip load diverges: %s vs %s", plain.Stats(), zipped.Stats())
	}

	// A gzipped KB must align exactly like a plain one.
	lits2 := NewLiterals()
	gz2 := filepath.Join(dir, "kb2.nt.gz")
	gzipFile(t, gz2, kb2)
	o1, err := LoadFile(gzPath, "kb1", lits2, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := LoadFile(gz2, "kb2", lits2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AlignContext(context.Background(), o1, o2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 || res.Instances[0].P != 1 {
		t.Fatalf("gzipped alignment = %v", res.Instances)
	}
}

// TestLoadFileGzipTurtle checks the .ttl.gz path chooses the Turtle parser.
func TestLoadFileGzipTurtle(t *testing.T) {
	dir := t.TempDir()
	gzPath := filepath.Join(dir, "kb.ttl.gz")
	gzipFile(t, gzPath, `@prefix a: <http://a.org/> .
a:elvis a:email "elvis@graceland.com" .
`)
	o, err := LoadFile(gzPath, "kb", NewLiterals(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumFacts() == 0 {
		t.Fatalf("no facts loaded: %s", o.Stats())
	}
}

func TestLoadFileGzipErrors(t *testing.T) {
	dir := t.TempDir()
	// Not actually gzip data.
	bogus := filepath.Join(dir, "kb.nt.gz")
	if err := os.WriteFile(bogus, []byte(kb1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bogus, "kb", NewLiterals(), nil); err == nil {
		t.Error("corrupt gzip accepted")
	}
	// Gzip with no recognizable inner extension.
	unknown := filepath.Join(dir, "kb.gz")
	gzipFile(t, unknown, kb1)
	if _, err := LoadFile(unknown, "kb", NewLiterals(), nil); err == nil {
		t.Error("extension-less gzip accepted")
	}
}

func writeGold(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gold.tsv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadGoldTSVCommentsAndBlanks(t *testing.T) {
	g, err := LoadGoldTSV(writeGold(t, `# comment line

<http://a/x>	<http://b/x>
<http://a/y>	<http://b/y>

# trailing comment
`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if k2, ok := g.Expected("<http://a/x>"); !ok || k2 != "<http://b/x>" {
		t.Fatalf("Expected(a/x) = %q, %v", k2, ok)
	}
}

// TestLoadGoldTSVWindowsExport covers gold files written by Windows tools:
// a UTF-8 BOM, CRLF line endings, and whitespace padding around the keys
// must all parse to clean keys — previously every CRLF line either failed
// or produced keys polluted with trailing whitespace.
func TestLoadGoldTSVWindowsExport(t *testing.T) {
	content := "\ufeff# exported gold\r\n" +
		"<http://a/x> \t <http://b/x>\r\n" +
		"<http://a/y>\t<http://b/y>  \r\n" +
		"\r\n"
	g, err := LoadGoldTSV(writeGold(t, content))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	for _, want := range [][2]string{
		{"<http://a/x>", "<http://b/x>"},
		{"<http://a/y>", "<http://b/y>"},
	} {
		if k2, ok := g.Expected(want[0]); !ok || k2 != want[1] {
			t.Errorf("Expected(%s) = %q, %v; want %q", want[0], k2, ok, want[1])
		}
	}
}

// TestLoadGoldTSVWhitespaceOnlyKey: trimming must not let a line of pure
// whitespace around the tab slip through as empty keys.
func TestLoadGoldTSVWhitespaceOnlyKey(t *testing.T) {
	if _, err := LoadGoldTSV(writeGold(t, "  \t<http://b/x>\r\n")); err == nil {
		t.Error("empty first key accepted")
	}
	if _, err := LoadGoldTSV(writeGold(t, "<http://a/x>\t   \r\n")); err == nil {
		t.Error("empty second key accepted")
	}
}

func TestLoadGoldTSVMalformed(t *testing.T) {
	cases := map[string]string{
		"no tab":           "<http://a/x> <http://b/x>\n",
		"single field":     "<http://a/x>\n",
		"conflicting pair": "<http://a/x>\t<http://b/x>\n<http://a/x>\t<http://b/y>\n",
		"conflicting rev":  "<http://a/x>\t<http://b/x>\n<http://a/y>\t<http://b/x>\n",
	}
	for name, content := range cases {
		if _, err := LoadGoldTSV(writeGold(t, content)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadGoldTSVDuplicateIdenticalPair(t *testing.T) {
	// Restating the same pair is not a conflict.
	g, err := LoadGoldTSV(writeGold(t, "<http://a/x>\t<http://b/x>\n<http://a/x>\t<http://b/x>\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestLoadGoldTSVMissingFile(t *testing.T) {
	if _, err := LoadGoldTSV(filepath.Join(t.TempDir(), "absent.tsv")); err == nil {
		t.Error("missing file accepted")
	}
}
