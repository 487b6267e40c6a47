package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/literal"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Options scales the harness. The zero value is parisbench's default run:
// seed 42, scale 1.
type Options struct {
	// Seed drives the dataset generators. Zero means 42.
	Seed int64
	// Scale multiplies the large corpora (world, movies); 0 means 1.
	Scale float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

func (o Options) worldConfig() gen.WorldConfig {
	return gen.WorldConfig{
		Seed:      o.Seed,
		People:    int(6000 * o.Scale),
		Cities:    int(250 * o.Scale),
		Companies: int(200 * o.Scale),
		Movies:    int(1500 * o.Scale),
		Albums:    int(1200 * o.Scale),
		Books:     int(1200 * o.Scale),
	}
}

func (o Options) moviesConfig() gen.MoviesConfig {
	return gen.MoviesConfig{
		Seed:   o.Seed,
		People: int(4000 * o.Scale),
		Movies: int(1500 * o.Scale),
	}
}

// CorpusResult is the scored outcome of one alignment run on one corpus.
type CorpusResult struct {
	Name      string
	Instances eval.Metrics
	GoldSize  int
	Relations RelEval // direction ontology-1 ⊆ ontology-2
	RelBack   RelEval // direction ontology-2 ⊆ ontology-1
	Classes   ClassEval
	ClassBack ClassEval
	Iters     int
	Elapsed   time.Duration
}

func (c CorpusResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s gold %4d  instances: %s  (%d iterations, %v)\n",
		c.Name, c.GoldSize, c.Instances, c.Iters, c.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-12s relations 1⊆2: %s   2⊆1: %s\n", "", c.Relations, c.RelBack)
	fmt.Fprintf(&b, "%-12s classes   1⊆2: prec %.0f%% (%d subs)   2⊆1: prec %.0f%% (%d subs)\n", "",
		100*c.Classes.Precision(), c.Classes.Subs, 100*c.ClassBack.Precision(), c.ClassBack.Subs)
	return b.String()
}

// runCorpus aligns a generated dataset and scores everything against its
// gold standards. classThreshold filters class alignments before scoring.
func runCorpus(name string, d *gen.Dataset, norm store.Normalizer, cfg core.Config, classThreshold float64) CorpusResult {
	o1, o2 := buildOrPanic(d, norm)
	t0 := time.Now()
	res := core.New(o1, o2, cfg).Run()
	elapsed := time.Since(t0)
	return CorpusResult{
		Name:      name,
		Instances: evalInstances(d, res),
		GoldSize:  d.Gold.Len(),
		Relations: EvalRelations(o1, o2, res.Relations12, d.RelGold),
		RelBack:   EvalRelations(o2, o1, res.Relations21, invertRelGold(d.RelGold)),
		Classes:   EvalClasses(o1, o2, res.Classes12, d.ClassGold, classThreshold),
		ClassBack: EvalClasses(o2, o1, res.Classes21, invertClassGold(d.ClassGold), classThreshold),
		Iters:     len(res.Iterations),
		Elapsed:   elapsed,
	}
}

func invertClassGold(gold map[string]string) map[string]string {
	inv := make(map[string]string, len(gold))
	for k, v := range gold {
		// Several sub-classes may share a gold super; keep the first
		// deterministically (sorted) — the reverse direction is only a
		// nearest-super judgment anyway.
		if prev, ok := inv[v]; !ok || k < prev {
			inv[v] = k
		}
	}
	return inv
}

// Table1 reproduces the OAEI benchmark rows (paper Table 1): person and
// restaurant corpora under default settings.
func Table1(opt Options) []CorpusResult {
	opt = opt.withDefaults()
	return []CorpusResult{
		runCorpus("person", gen.Persons(gen.PersonsConfig{Seed: opt.Seed}), nil, core.Config{}, 0.4),
		runCorpus("restaurant", gen.Restaurants(gen.RestaurantsConfig{Seed: opt.Seed}), nil, core.Config{}, 0.4),
	}
}

// Table2 reproduces the corpus-statistics table (paper Table 2).
func Table2(opt Options) []store.Stats {
	opt = opt.withDefaults()
	var out []store.Stats
	for _, d := range []*gen.Dataset{
		gen.World(opt.worldConfig()),
		gen.Movies(opt.moviesConfig()),
	} {
		o1, o2 := buildOrPanic(d, nil)
		out = append(out, o1.Stats(), o2.Stats())
	}
	return out
}

// IterationRow is one row of the per-iteration tables (paper Tables 3 / 5).
type IterationRow struct {
	Iter      int
	Changed   float64 // fraction of entities with a new maximal assignment
	Instances eval.Metrics
	Relations RelEval
	RelBack   RelEval
	Elapsed   time.Duration
}

// IterationTable is a per-iteration alignment trace plus the final class
// alignment, the layout of paper Tables 3 and 5.
type IterationTable struct {
	Name      string
	Rows      []IterationRow
	Classes   ClassEval
	ClassBack ClassEval
	// RestrictedInstances scores only gold entities passing the >10-facts
	// filter (the paper's "entities with more than 10 facts" remark).
	RestrictedInstances eval.Metrics
}

func (t IterationTable) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — per-iteration results\n", t.Name)
	fmt.Fprintf(&b, "%4s %8s  %-34s  %-28s  %-28s %s\n",
		"iter", "change", "instances", "rel 1⊆2", "rel 2⊆1", "time")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%4d %7.1f%%  %-34s  %-28s  %-28s %v\n",
			r.Iter, 100*r.Changed, r.Instances.String(), r.Relations, r.RelBack,
			r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "rich entities (>10 facts): %s\n", t.RestrictedInstances)
	fmt.Fprintf(&b, "classes 1⊆2: prec %.0f%% (%d subs)   2⊆1: prec %.0f%% (%d subs)\n",
		100*t.Classes.Precision(), t.Classes.Subs,
		100*t.ClassBack.Precision(), t.ClassBack.Subs)
	return b.String()
}

// iterationTable runs an alignment capturing per-iteration metrics.
func iterationTable(name string, d *gen.Dataset, maxIter int, classThreshold float64) IterationTable {
	o1, o2 := buildOrPanic(d, nil)
	out := IterationTable{Name: name}
	invGold := invertRelGold(d.RelGold)
	start := time.Now()
	cfg := core.Config{
		MaxIterations: maxIter,
		OnIteration: func(it int, a *core.Aligner) {
			assign := map[string]string{}
			for _, as := range a.Assignments() {
				assign[o1.ResourceKey(as.X1)] = o2.ResourceKey(as.X2)
			}
			to2, to1 := a.RelationAlignments()
			stats := a.Iterations()[it-1]
			out.Rows = append(out.Rows, IterationRow{
				Iter:      it,
				Changed:   stats.ChangedFraction,
				Instances: d.Gold.Evaluate(assign),
				Relations: EvalRelations(o1, o2, to2, d.RelGold),
				RelBack:   EvalRelations(o2, o1, to1, invGold),
				Elapsed:   time.Since(start),
			})
			start = time.Now()
		},
	}
	res := core.New(o1, o2, cfg).Run()
	out.Classes = EvalClasses(o1, o2, res.Classes12, d.ClassGold, classThreshold)
	out.ClassBack = EvalClasses(o2, o1, res.Classes21, invertClassGold(d.ClassGold), classThreshold)
	out.RestrictedInstances = d.Gold.EvaluateWhere(res.InstanceMap(), func(k1 string) bool {
		x, ok := o1.LookupResource(k1)
		return ok && len(o1.Edges(x)) > 10
	})
	return out
}

// Table3 reproduces the YAGO-vs-DBpedia experiment (paper Table 3) on the
// world corpus.
func Table3(opt Options) IterationTable {
	opt = opt.withDefaults()
	return iterationTable("world (ykb vs dkb)", gen.World(opt.worldConfig()), 4, 0.4)
}

// RelationExample is one showcased relation alignment (paper Table 4).
type RelationExample struct {
	Sub, Super string
	P          float64
}

// Table4 reproduces the showcase of discovered relation alignments (paper
// Table 4): inverse alignments, coarse/fine splits, and different-name
// pairs, with their scores.
func Table4(opt Options) []RelationExample {
	opt = opt.withDefaults()
	d := gen.World(opt.worldConfig())
	o1, o2 := buildOrPanic(d, nil)
	res := core.New(o1, o2, core.Config{}).Run()
	var out []RelationExample
	for _, ra := range res.Relations12 {
		sub := o1.RelationName(ra.Sub)
		if strings.HasSuffix(sub, "⁻¹") {
			continue // show base directions only, like the paper
		}
		out = append(out, RelationExample{
			Sub:   shorten(sub),
			Super: shorten(o2.RelationName(ra.Super)),
			P:     ra.P,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sub != out[j].Sub {
			return out[i].Sub < out[j].Sub
		}
		return out[i].P > out[j].P
	})
	return out
}

// shorten maps a full IRI to a prefix:local rendering for display.
func shorten(iri string) string {
	for _, p := range [...][2]string{
		{"http://ykb.example.org/", "y:"},
		{"http://dkb.example.org/", "dbp:"},
		{"http://ykbfilm.example.org/", "y:"},
		{"http://ikb.example.org/", "imdb:"},
		{rdf.RDFSLabel, "rdfs:label"},
	} {
		if strings.HasPrefix(iri, p[0]) {
			return p[1] + strings.TrimPrefix(iri, p[0])
		}
	}
	return iri
}

// Table5Result extends the iteration table with the label-matching baseline
// of Section 6.4.
type Table5Result struct {
	IterationTable
	Baseline eval.Metrics
}

func (t Table5Result) Report() string {
	return t.IterationTable.Report() +
		fmt.Sprintf("rdfs:label baseline: %s\n", t.Baseline)
}

// Table5 reproduces the YAGO-vs-IMDb experiment (paper Table 5) on the
// movie corpus, including the label baseline the paper compares against
// (97% precision / 70% recall there).
func Table5(opt Options) Table5Result {
	opt = opt.withDefaults()
	d := gen.Movies(opt.moviesConfig())
	table := iterationTable("movies (ykb-film vs ikb)", d, 4, 0)
	o1, o2 := buildOrPanic(d, nil)
	base := baseline.LabelMatch(o1, o2, baseline.Config{})
	return Table5Result{
		IterationTable: table,
		Baseline:       d.Gold.Evaluate(base),
	}
}

// ThresholdPoint is one point of the Figure 1 / Figure 2 sweeps.
type ThresholdPoint struct {
	Threshold float64
	Precision float64 // Figure 1: class-alignment precision
	Count     int     // Figure 2: classes with >= threshold alignment
}

// Figures1And2 reproduces the class-alignment threshold sweeps of Figures 1
// and 2: precision increases with the probability threshold while the
// number of aligned classes decreases.
func Figures1And2(opt Options) []ThresholdPoint {
	opt = opt.withDefaults()
	d := gen.World(opt.worldConfig())
	o1, o2 := buildOrPanic(d, nil)
	res := core.New(o1, o2, core.Config{}).Run()
	var out []ThresholdPoint
	for _, th := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		ce := EvalClasses(o1, o2, res.Classes12, d.ClassGold, th)
		out = append(out, ThresholdPoint{
			Threshold: th,
			Precision: ce.Precision(),
			Count:     CountClassAlignments(res.Classes12, th),
		})
	}
	return out
}

// ThetaResult records one θ setting of the Section 6.3 sweep.
type ThetaResult struct {
	Theta     float64
	Instances eval.Metrics
	// RelScores maps "sub->super" to the final probability; the paper's
	// claim is that these are identical across θ.
	RelScores map[string]float64
}

// ThetaSweep reproduces the first Section 6.3 experiment: the final
// sub-relation scores are independent of the bootstrap value θ.
func ThetaSweep(opt Options) []ThetaResult {
	opt = opt.withDefaults()
	d := gen.Restaurants(gen.RestaurantsConfig{Seed: opt.Seed})
	var out []ThetaResult
	for _, theta := range []float64{0.001, 0.01, 0.05, 0.1, 0.2} {
		o1, o2 := buildOrPanic(d, nil)
		res := core.New(o1, o2, core.Config{Theta: theta}).Run()
		scores := map[string]float64{}
		for _, ra := range core.MaxRelAlignments(res.Relations12) {
			scores[shorten(o1.RelationName(ra.Sub))+" ⊆ "+shorten(o2.RelationName(ra.Super))] = ra.P
		}
		out = append(out, ThetaResult{
			Theta:     theta,
			Instances: evalInstances(d, res),
			RelScores: scores,
		})
	}
	return out
}

// AblationResult compares a variant configuration against the default.
type AblationResult struct {
	Name      string
	Instances eval.Metrics
	// Restaurants scores restaurant entities only (excluding the address
	// entities), the population the paper's Table 1 counts. Only the
	// restaurant ablations fill it.
	Restaurants eval.Metrics
}

// AllPairsAblation reproduces the second Section 6.3 experiment: using all
// equalities of the previous iteration instead of only the maximal
// assignment changes the outcome only marginally.
func AllPairsAblation(opt Options) []AblationResult {
	opt = opt.withDefaults()
	d := gen.Restaurants(gen.RestaurantsConfig{Seed: opt.Seed})
	out := make([]AblationResult, 0, 2)
	for _, mode := range []struct {
		name string
		all  bool
	}{{"maximal-assignment", false}, {"all-equalities", true}} {
		o1, o2 := buildOrPanic(d, nil)
		res := core.New(o1, o2, core.Config{AllEqualities: mode.all}).Run()
		out = append(out, AblationResult{Name: mode.name, Instances: evalInstances(d, res)})
	}
	return out
}

// NegativeEvidenceAblation reproduces the third Section 6.3 experiment:
// with raw literal identity, negative evidence (Equation 14) makes PARIS
// give up most restaurant matches (the phone-format problem); with the
// alphanumeric normalizer it trades recall for perfect precision.
func NegativeEvidenceAblation(opt Options) []AblationResult {
	opt = opt.withDefaults()
	d := gen.Restaurants(gen.RestaurantsConfig{Seed: opt.Seed})
	var out []AblationResult
	isRestaurant := func(k1 string) bool {
		return strings.Contains(k1, "/rest") && !strings.Contains(k1, "_addr")
	}
	run := func(name string, norm store.Normalizer, cfg core.Config) {
		o1, o2 := buildOrPanic(d, norm)
		res := core.New(o1, o2, cfg).Run()
		assign := res.InstanceMap()
		out = append(out, AblationResult{
			Name:        name,
			Instances:   d.Gold.Evaluate(assign),
			Restaurants: d.Gold.EvaluateWhere(assign, isRestaurant),
		})
	}
	run("positive only, identity literals", nil, core.Config{})
	run("negative evidence, identity literals", nil, core.Config{NegativeEvidence: true})
	run("negative evidence, alphanum literals", literal.AlphaNum, core.Config{NegativeEvidence: true})
	return out
}

// FunctionalityAblation reproduces the Appendix A comparison: instance
// quality under the four global-functionality definitions.
func FunctionalityAblation(opt Options) []AblationResult {
	opt = opt.withDefaults()
	d := gen.Movies(opt.moviesConfig())
	var out []AblationResult
	for _, mode := range []store.FunMode{
		store.FunHarmonicMean, store.FunPairRatio,
		store.FunArgRatio, store.FunArithmeticMean,
	} {
		o1, o2 := buildOrPanic(d, nil)
		res := core.New(o1, o2, core.Config{FunMode: mode}).Run()
		out = append(out, AblationResult{Name: mode.String(), Instances: evalInstances(d, res)})
	}
	return out
}
