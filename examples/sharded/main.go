// Sharded serving walkthrough: align a movie corpus once, split the
// published sameAs index across three shard servers by hash of the
// normalized entity key, and serve lookups through the scatter-gather
// router — the deployment shape for knowledge bases too large for one heap
// (in production the shards are `parisd -shard i/N` processes on separate
// hosts and the router is `parisrouter`; here everything runs in-process).
//
// The walkthrough shows the two-phase publish: per-shard slices land first
// (PUT /v1/snapshots/{id} with one common ID), and the router flips its
// routing epoch only once every shard has acknowledged — readers never see
// a torn cross-shard view, and ?snapshot=-pinned reads resolve consistently
// on every shard.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	paris "repro"
	"repro/client"
	"repro/internal/gen"
	"repro/internal/shard"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "paris-sharded-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Align once (the aligner's job, not the shards'). ----
	d := gen.Movies(gen.MoviesConfig{Seed: 42, People: 400, Movies: 150})
	o1, o2, err := d.Build(nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := paris.AlignContext(ctx, o1, o2, paris.Config{})
	if err != nil {
		log.Fatal(err)
	}
	snap := res.Snapshot()
	fmt.Printf("aligned %s vs %s: %d instance pairs\n", snap.KB1, snap.KB2, len(snap.Instances))

	// ---- Start three shards (parisd -shard i/N) and the router. ----
	const n = 3
	var urls []string
	var peers []*client.Client
	for i := 0; i < n; i++ {
		srv, err := paris.NewServer(paris.ServerOptions{
			StateDir:   fmt.Sprintf("%s/shard-%d", dir, i),
			ShardIndex: i,
			ShardCount: n,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		peer, err := client.New(ts.URL)
		if err != nil {
			log.Fatal(err)
		}
		urls = append(urls, ts.URL)
		peers = append(peers, peer)
	}
	router, err := shard.NewRouter(urls, shard.WithLogf(log.Printf))
	if err != nil {
		log.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	c, err := client.New(front.URL)
	if err != nil {
		log.Fatal(err)
	}

	// ---- Two-phase publish. ----
	const version = "snap-00000001"
	if err := shard.Publish(ctx, peers, version, snap); err != nil { // phase 1: slices to every shard
		log.Fatal(err)
	}
	epoch, err := router.Refresh(ctx) // phase 2: flip the routing epoch
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %s to %d shards, routing epoch %s\n", version, n, epoch)

	// ---- Lookups through the router, exactly the single-process API. ----
	pairs := d.Gold.Pairs()
	one, err := c.SameAs(ctx, client.SameAsQuery{KB: "1", Key: pairs[0][0]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sameas %s -> %s (p=%.2f) via shard %d\n",
		pairs[0][0], one.Matches[0].Key, one.Matches[0].P, mustPart(n).Owner(pairs[0][0]))

	keys := make([]string, 0, 64)
	for _, p := range pairs[:min(64, len(pairs))] {
		keys = append(keys, p[0])
	}
	batch, err := c.SameAsBatch(ctx, client.BatchSameAsQuery{KB: "1", Keys: keys})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d keys scatter-gathered: %d found on snapshot %s\n",
		len(keys), batch.Found, batch.Snapshot)

	// Pinned reads survive later publishes: the ID is common to all shards.
	pinned, err := c.SameAs(ctx, client.SameAsQuery{KB: "1", Key: pairs[0][0], Snapshot: version})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned read on %s agrees: %s\n", pinned.Snapshot, pinned.Matches[0].Key)
}

func mustPart(n int) shard.Partitioner {
	p, err := shard.NewPartitioner(n)
	if err != nil {
		panic(err)
	}
	return p
}
