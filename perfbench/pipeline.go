package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/store"
)

// corpus is a generated dataset as the workloads use it: base N-Triples
// files on disk, and the held-out plain facts of each side as the delta
// documents of a delta job.
type corpus struct {
	d              *gen.Dataset
	kb1, kb2       string       // base files
	add1, add2     []rdf.Triple // held-out facts
	delta1, delta2 string       // the same, as N-Triples documents
}

// prepare splits d as BenchmarkIncrementalRealign does — one in 150 of
// each predicate's plain facts is held out; schema triples and each
// predicate's first fact stay in the base — and writes the base files.
func prepare(dir string, d *gen.Dataset) (*corpus, error) {
	split := func(triples []rdf.Triple) (base, held []rdf.Triple) {
		perPred := map[string]int{}
		for _, t := range triples {
			switch t.Predicate.Value {
			case rdf.RDFType, rdf.RDFSSubClassOf, rdf.RDFSSubPropertyOf:
				base = append(base, t)
				continue
			}
			n := perPred[t.Predicate.Value]
			perPred[t.Predicate.Value] = n + 1
			if n > 0 && n%150 == 0 {
				held = append(held, t)
			} else {
				base = append(base, t)
			}
		}
		return base, held
	}
	base := *d
	c := &corpus{d: d}
	base.Triples1, c.add1 = split(d.Triples1)
	base.Triples2, c.add2 = split(d.Triples2)
	if err := base.WriteFiles(dir); err != nil {
		return nil, err
	}
	c.kb1 = filepath.Join(dir, d.Name1+".nt")
	c.kb2 = filepath.Join(dir, d.Name2+".nt")
	doc := func(ts []rdf.Triple) (string, error) {
		var sb strings.Builder
		err := rdf.WriteNTriples(&sb, ts)
		return sb.String(), err
	}
	var err error
	if c.delta1, err = doc(c.add1); err != nil {
		return nil, err
	}
	if c.delta2, err = doc(c.add2); err != nil {
		return nil, err
	}
	return c, nil
}

// f1 scores a snapshot's instance assignments against the gold standard.
func (c *corpus) f1(snap *core.ResultSnapshot) float64 {
	m := make(map[string]string, len(snap.Instances))
	for _, a := range snap.Instances {
		m[a.Key1] = a.Key2
	}
	return c.d.Gold.Evaluate(m).F1
}

// layerTimes is one pass through the alignment pipeline, timed per layer.
type layerTimes struct {
	parse, build, functionality, instance, relation, subclass, encode, publish float64 // seconds
	applyDelta, warm                                                           float64 // seconds
	triples                                                                    int64
	iterations, warmIterations, snapBytes                                      int
}

// pipeline calls, in a parisd job's order, the public functions a cold
// alignment job calls, timing each layer: ingest.Run parses both base files
// (emitting nowhere), store.LoadReaderContext loads them with the job's
// options, core.NewChecked computes functionalities, RunContext runs the
// fixpoint as the job runs it (its per-iteration stats split the instance
// and relation passes, its ClassTime is the subclass pass), and
// MarshalBinary encodes the snapshot. With pub, the result is published
// there as PublishResult publishes a job's result. With warmIter > 0 it
// then re-aligns as the two delta jobs do: ApplyDelta on one side, then a
// warm fixpoint from the previous snapshot, once per side.
func (r *run) pipeline(ctx context.Context, c *corpus, cfg core.Config, pub *server.Server, warmIter int) (*core.Result, *core.ResultSnapshot, layerTimes, error) {
	var lt layerTimes
	for _, path := range []string{c.kb1, c.kb2} {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, lt, err
		}
		t0 := time.Now()
		p, err := ingest.Run(ctx, f, ingest.Options{TempDir: r.dir}, func(rdf.Triple) error { return nil })
		lt.parse += time.Since(t0).Seconds()
		f.Close()
		if err != nil {
			return nil, nil, lt, fmt.Errorf("parsing %s: %w", path, err)
		}
		lt.triples += p.Triples
	}
	lits := store.NewLiterals()
	load := func(path string) (*store.Ontology, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// The options server.Server.loadKB passes with parisd's defaults.
		return store.LoadReaderContext(ctx, f, path, store.BaseName(path), lits, nil,
			store.WithParallelism(0), store.WithMemoryBudget(0), store.WithSpillDir(r.dir),
			store.WithLoadProgress(func(ingest.Progress) {}))
	}
	t0 := time.Now()
	o1, err := load(c.kb1)
	if err != nil {
		return nil, nil, lt, err
	}
	o2, err := load(c.kb2)
	if err != nil {
		return nil, nil, lt, err
	}
	lt.build = time.Since(t0).Seconds() - lt.parse

	t0 = time.Now()
	a, err := core.NewChecked(o1, o2, cfg)
	lt.functionality = time.Since(t0).Seconds()
	if err != nil {
		return nil, nil, lt, err
	}
	res, err := a.RunContext(ctx)
	if err != nil {
		return nil, nil, lt, err
	}
	for _, it := range res.Iterations {
		lt.instance += it.InstanceTime.Seconds()
		lt.relation += it.RelationTime.Seconds()
	}
	lt.iterations = len(res.Iterations)
	lt.subclass = res.ClassTime.Seconds()

	snap := res.Snapshot()
	t0 = time.Now()
	data, err := snap.MarshalBinary()
	lt.encode = time.Since(t0).Seconds()
	if err != nil {
		return nil, nil, lt, err
	}
	lt.snapBytes = len(data)
	if pub != nil {
		t0 = time.Now()
		if _, err := pub.PublishResult(res); err != nil {
			return nil, nil, lt, err
		}
		lt.publish = time.Since(t0).Seconds()
	}
	if warmIter == 0 {
		return res, snap, lt, nil
	}

	prior := snap
	warmCfg := core.Config{MaxIterations: warmIter}
	for _, side := range []struct {
		o   *store.Ontology
		add []rdf.Triple
	}{{o1, c.add1}, {o2, c.add2}} {
		t0 = time.Now()
		if _, err := side.o.ApplyDelta(side.add); err != nil {
			return nil, nil, lt, err
		}
		lt.applyDelta += time.Since(t0).Seconds()
		t0 = time.Now()
		wa, err := core.NewWarm(o1, o2, warmCfg, prior)
		if err != nil {
			return nil, nil, lt, err
		}
		wres, err := wa.RunContext(ctx)
		if err != nil {
			return nil, nil, lt, err
		}
		lt.warm += time.Since(t0).Seconds()
		lt.warmIterations += len(wres.Iterations)
		prior = wres.Snapshot()
	}
	return res, snap, lt, nil
}

// setPipelineLayers records the medians of the traced pipeline passes.
func (r *run) setPipelineLayers(passes []layerTimes) {
	pick := func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	r.set("ingest.parse_s", pick(func(p layerTimes) float64 { return p.parse }), "s")
	r.set("ingest.triples_per_s", pick(func(p layerTimes) float64 { return float64(p.triples) / p.parse }), "1/s")
	r.set("store.build_s", pick(func(p layerTimes) float64 { return p.build }), "s")
	r.set("store.apply_delta_s", pick(func(p layerTimes) float64 { return p.applyDelta }), "s")
	r.set("core.functionality_s", pick(func(p layerTimes) float64 { return p.functionality }), "s")
	r.set("core.instance_pass_s", pick(func(p layerTimes) float64 { return p.instance }), "s")
	r.set("core.relation_pass_s", pick(func(p layerTimes) float64 { return p.relation }), "s")
	r.set("core.subclass_pass_s", pick(func(p layerTimes) float64 { return p.subclass }), "s")
	r.set("core.warm_pass_s", pick(func(p layerTimes) float64 { return p.warm }), "s")
	r.set("core.iterations", pick(func(p layerTimes) float64 { return float64(p.iterations) }), "count")
	r.set("core.warm_iterations", pick(func(p layerTimes) float64 { return float64(p.warmIterations) }), "count")
	r.set("core.snapshot_encode_s", pick(func(p layerTimes) float64 { return p.encode }), "s")
	r.set("core.snapshot_bytes", pick(func(p layerTimes) float64 { return float64(p.snapBytes) }), "bytes")
	r.set("server.publish_s", pick(func(p layerTimes) float64 { return p.publish }), "s")
	r.note("traced pipeline passes: %d", len(passes))
}
