package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
)

// FuzzSameAsBatchBody posts arbitrary bytes as the body of POST /v1/sameas
// to a server that serves a small published alignment. Whatever the body, the
// answer is a 2xx or a 4xx: a 5xx or a panic is a bug.
func FuzzSameAsBatchBody(f *testing.F) {
	srv, err := New(Options{StateDir: f.TempDir(), Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	d := gen.Persons(gen.PersonsConfig{N: 20, Seed: 7})
	publishAligned(f, srv, d)
	h := srv.Handler()

	body := func(kb string, keys []string) []byte {
		data, err := json.Marshal(batchSameAsRequest{KB: kb, Keys: keys})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	pairs := d.Gold.Pairs()
	// An exact key, a miss and a key only the normalized fallback finds.
	valid := body("1", []string{pairs[0][0], "<http://nowhere/missing>", strings.ToUpper(strings.Trim(pairs[1][0], "<>"))})
	f.Add(valid)
	f.Add(body("2", []string{pairs[0][1]}))
	f.Add(body("1", []string{strings.Repeat("k", MaxBatchBody)}))
	f.Add(body("1", make([]string, MaxBatchKeys+1)))
	f.Add(body("7", []string{pairs[0][0]}))
	f.Add([]byte("{\"kb\":\"1\",\"keys\":[\"<http://person1.example.org/\xff\xfe>\",\"\xc3\"]}"))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sameas", bytes.NewReader(data)))
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/sameas with %.200q: %d %s", data, rec.Code, rec.Body)
		}
	})
}
