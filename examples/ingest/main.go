// Push-based KB ingestion walkthrough: stream a gzipped N-Triples dump to
// a remote aligner with client.UploadKB instead of copying files to its
// disk, follow the ingest job's progress over the SSE stream with
// client.WatchJob, recover an interrupted upload from the offset the
// server reports, and align the pushed KB by its "kb:" reference — an
// in-process parisd stands in for the real daemon.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	paris "repro"
	"repro/client"
	"repro/internal/gen"
	"repro/internal/rdf"
)

func main() {
	ctx := context.Background()

	// Stand-in for `parisd -state ... -ingest-workers 4`: every streaming
	// load parses blocks on 4 workers and feeds them on in input order.
	dir, err := os.MkdirTemp("", "paris-ingest-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv, err := paris.NewServer(paris.ServerOptions{
		StateDir:      filepath.Join(dir, "state"),
		Workers:       1,
		IngestWorkers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		log.Fatal(err)
	}

	// A generated corpus plays the role of the local dumps: one side is
	// gzipped and pushed to the server, the other written to the server's
	// disk the classic way.
	d := gen.Movies(gen.MoviesConfig{Seed: 3, People: 500, Movies: 150})
	if err := d.WriteFiles(dir); err != nil {
		log.Fatal(err)
	}
	var zdump bytes.Buffer
	zw := gzip.NewWriter(&zdump)
	if err := rdf.WriteNTriples(zw, d.Triples1); err != nil {
		log.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local dump: %d triples, %d bytes gzipped\n", len(d.Triples1), zdump.Len())

	// Push the dump. The body streams chunked — a real caller hands
	// UploadKB the file handle (or any io.Reader) directly; nothing is
	// buffered client-side.
	job, err := c.UploadKB(ctx, client.UploadKBRequest{Name: "movies", Format: ".nt.gz"},
		bytes.NewReader(zdump.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upload accepted as %s (%d bytes spooled)\n", job.ID, job.Upload.Bytes)

	// Follow the validation over SSE: an "ingest" frame per MiB of input
	// and one with the totals, then "done" with the committed path.
	final, err := c.WatchJob(ctx, job.ID, func(ev client.JobEvent) {
		if ev.Type == client.EventIngest && ev.Job.Ingest != nil {
			p := ev.Job.Ingest
			fmt.Printf("  %d blocks: %d triples, %d bytes\n",
				p.Blocks, p.Triples, p.Bytes)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if final.State != client.JobDone {
		log.Fatalf("ingest failed: %s", final.Error)
	}
	fmt.Printf("KB committed at %s (%d triples)\n", final.KB, final.Ingest.Triples)

	// Interrupted uploads resume instead of restarting: push half, watch
	// the validation fail on the truncated gzip stream with a byte
	// offset, then send only the remainder from the server's offset.
	half := zdump.Len() / 2
	job, err = c.UploadKB(ctx, client.UploadKBRequest{Name: "resumed", Format: ".nt.gz"},
		bytes.NewReader(zdump.Bytes()[:half]))
	if err != nil {
		log.Fatal(err)
	}
	if failed, err := c.WaitJob(ctx, job.ID, 0); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("truncated upload rejected: %s\n", failed.Error)
	}
	kbs, err := c.KBs(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, kb := range kbs {
		if kb.State == "partial" {
			fmt.Printf("partial upload %q: resume at offset %d\n", kb.Name, kb.Offset)
			job, err = c.UploadKB(ctx,
				client.UploadKBRequest{Name: kb.Name, Format: ".nt.gz", Offset: kb.Offset},
				bytes.NewReader(zdump.Bytes()[kb.Offset:]))
			if err != nil {
				// A mismatched offset comes back as *client.UploadError
				// carrying the right one.
				var ue *client.UploadError
				if errors.As(err, &ue) {
					log.Fatalf("resume at %d instead", ue.Offset)
				}
				log.Fatal(err)
			}
			if done, err := c.WaitJob(ctx, job.ID, 0); err != nil || done.State != client.JobDone {
				log.Fatalf("resume failed: %v %s", err, done.Error)
			}
			fmt.Printf("resumed upload committed after sending %d more bytes\n",
				int64(zdump.Len())-kb.Offset)
		}
	}

	// Align the pushed KB against a server-side file. "kb:movies"
	// resolves to the committed upload; the align job's own KB loads run
	// through the same streaming pipeline and surface ingest frames too.
	alignJob, err := c.SubmitJob(ctx, client.JobRequest{
		KB1: "kb:movies",
		KB2: filepath.Join(dir, d.Name2+".nt"),
	})
	if err != nil {
		log.Fatal(err)
	}
	final, err = c.WatchJob(ctx, alignJob.ID, func(ev client.JobEvent) {
		switch ev.Type {
		case client.EventIngest:
			fmt.Printf("  loading: %d triples\n", ev.Job.Ingest.Triples)
		case client.EventIteration:
			it := ev.Job.Iterations[len(ev.Job.Iterations)-1]
			fmt.Printf("  iteration %d: %d assigned\n", it.Iteration, it.Assigned)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if final.State != client.JobDone {
		log.Fatalf("alignment failed: %s", final.Error)
	}
	fmt.Printf("aligned: snapshot %s\n", final.Snapshot)

	pairs := d.Gold.Pairs()
	res, err := c.SameAs(ctx, client.SameAsQuery{KB: "1", Key: pairs[0][0]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s sameAs %s (p=%.2f)\n", pairs[0][0], res.Matches[0].Key, res.Matches[0].P)
}
