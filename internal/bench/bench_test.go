package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/store"
)

// smallOpt keeps the harness tests fast.
var smallOpt = Options{Seed: 7, Scale: 0.15}

func TestTable1Shape(t *testing.T) {
	rows := Table1(Options{Seed: 7})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	person, rest := rows[0], rows[1]
	if person.Instances.F1 < 0.99 {
		t.Errorf("person F = %v, want ~1.0 (paper: 100%%)", person.Instances.F1)
	}
	if person.Relations.Precision() < 0.99 || person.Relations.Recall() < 0.99 {
		t.Errorf("person relations = %+v, want perfect", person.Relations)
	}
	if rest.Instances.F1 < 0.80 || rest.Instances.F1 > 0.97 {
		t.Errorf("restaurant F = %v, want high-80s/low-90s (paper: 91%%)", rest.Instances.F1)
	}
	if rest.Iters > 5 {
		t.Errorf("restaurant iterations = %d, paper converged in 3", rest.Iters)
	}
	if r := person.Report(); !strings.Contains(r, "person") {
		t.Error("report missing corpus name")
	}
}

func TestTable2Asymmetries(t *testing.T) {
	stats := Table2(smallOpt)
	if len(stats) != 4 {
		t.Fatalf("stats = %d, want 4", len(stats))
	}
	ykb, dkb := stats[0], stats[1]
	if ykb.Classes <= dkb.Classes {
		t.Errorf("world class asymmetry lost: %d <= %d", ykb.Classes, dkb.Classes)
	}
	if ykb.Relations >= dkb.Relations {
		t.Errorf("world relation asymmetry lost: %d >= %d", ykb.Relations, dkb.Relations)
	}
	film, imdb := stats[2], stats[3]
	if film.Classes <= imdb.Classes {
		t.Errorf("movie class asymmetry lost: %d <= %d", film.Classes, imdb.Classes)
	}
}

func TestTable3PerIterationShape(t *testing.T) {
	table := Table3(Options{Seed: 7, Scale: 0.4})
	if len(table.Rows) == 0 {
		t.Fatal("no iteration rows")
	}
	first, last := table.Rows[0], table.Rows[len(table.Rows)-1]
	// The paper's shape: F never collapses across iterations and the
	// changed fraction decreases.
	if last.Instances.F1+0.06 < first.Instances.F1 {
		t.Errorf("F degraded across iterations: %v -> %v", first.Instances.F1, last.Instances.F1)
	}
	if last.Changed >= first.Changed {
		t.Errorf("change fraction did not decrease: %v -> %v", first.Changed, last.Changed)
	}
	// Rich entities must beat the overall recall (73%% vs 85%% in the paper).
	if table.RestrictedInstances.Recall <= last.Instances.Recall {
		t.Errorf(">10-facts recall %v should exceed overall %v",
			table.RestrictedInstances.Recall, last.Instances.Recall)
	}
	if r := table.Report(); !strings.Contains(r, "iter") {
		t.Error("report lacks iteration header")
	}
}

func TestTable4ShowcasesInversesAndSplits(t *testing.T) {
	examples := Table4(smallOpt)
	if len(examples) == 0 {
		t.Fatal("no relation examples")
	}
	var sawInverse, sawCreatedSplit bool
	createdTargets := map[string]bool{}
	for _, ex := range examples {
		if strings.HasSuffix(ex.Super, "⁻¹") {
			sawInverse = true
		}
		if ex.Sub == "y:created" {
			createdTargets[ex.Super] = true
		}
		if ex.P < 0.1 || ex.P > 1 {
			t.Errorf("score out of range: %+v", ex)
		}
	}
	if !sawInverse {
		t.Error("no inverse alignment discovered (paper: actedIn ⊆ starring⁻¹)")
	}
	if len(createdTargets) >= 2 {
		sawCreatedSplit = true
	}
	if !sawCreatedSplit {
		t.Logf("created split into %v (paper shows author/artist/writer)", createdTargets)
	}
}

func TestTable5BaselineComparison(t *testing.T) {
	res := Table5(smallOpt)
	if len(res.Rows) == 0 {
		t.Fatal("no iteration rows")
	}
	last := res.Rows[len(res.Rows)-1]
	// The headline claim: PARIS beats the label baseline's recall by a
	// wide margin at comparable precision.
	if last.Instances.Recall <= res.Baseline.Recall {
		t.Errorf("paris recall %v must beat baseline %v",
			last.Instances.Recall, res.Baseline.Recall)
	}
	if res.Baseline.Precision < 0.9 {
		t.Errorf("baseline precision = %v, should be high", res.Baseline.Precision)
	}
	if !strings.Contains(res.Report(), "baseline") {
		t.Error("report lacks baseline row")
	}
}

func TestFigures1And2Monotonicity(t *testing.T) {
	points := Figures1And2(smallOpt)
	if len(points) != 9 {
		t.Fatalf("points = %d", len(points))
	}
	// Figure 2's shape: counts must not increase with the threshold.
	for i := 1; i < len(points); i++ {
		if points[i].Count > points[i-1].Count {
			t.Errorf("class count increased with threshold: %+v -> %+v",
				points[i-1], points[i])
		}
	}
	// Figure 1's shape: precision at the top thresholds beats the bottom.
	if points[len(points)-1].Precision < points[0].Precision {
		t.Errorf("precision did not improve with threshold: %v -> %v",
			points[0].Precision, points[len(points)-1].Precision)
	}
}

func TestThetaSweepInvariance(t *testing.T) {
	results := ThetaSweep(Options{Seed: 7})
	var base map[string]float64
	for _, r := range results {
		if r.Theta == 0.1 {
			base = r.RelScores
		}
	}
	if base == nil {
		t.Fatal("default θ missing from sweep")
	}
	// The paper's claim holds for θ within two orders of magnitude of the
	// default on this corpus. At θ = 0.001 it does not: `parisbench -exp
	// theta` (seed 42) prints a max relation-score deviation of 0.0561 from
	// θ = 0.1, and instance recall falls from 83.5% to 62.1%.
	for _, r := range results {
		if r.Theta < 0.01 {
			continue
		}
		if len(r.RelScores) != len(base) {
			t.Errorf("θ=%v changed the relation alignment set", r.Theta)
		}
		for k, v := range base {
			if d := r.RelScores[k] - v; d > 0.02 || d < -0.02 {
				t.Errorf("θ=%v changed score of %s: %v vs %v", r.Theta, k, r.RelScores[k], v)
			}
		}
	}
}

func TestAllPairsAblationMarginal(t *testing.T) {
	rows := AllPairsAblation(Options{Seed: 7})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	diff := rows[0].Instances.F1 - rows[1].Instances.F1
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05 {
		t.Errorf("all-equalities changed F by %v; paper reports a marginal change", diff)
	}
}

func TestNegativeEvidenceShape(t *testing.T) {
	rows := NegativeEvidenceAblation(Options{Seed: 7})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	positive, negIdentity, negAlpha := rows[0], rows[1], rows[2]
	// Raw identity + negative evidence kills nearly all restaurant pairs.
	if negIdentity.Restaurants.Recall > 0.2 {
		t.Errorf("identity+negative restaurant recall = %v, paper: gives up all matches",
			negIdentity.Restaurants.Recall)
	}
	// Normalized literals restore precision to 100%% at reduced recall.
	if negAlpha.Restaurants.Precision < 0.999 {
		t.Errorf("alphanum+negative precision = %v, paper: 100%%", negAlpha.Restaurants.Precision)
	}
	if negAlpha.Restaurants.Recall >= positive.Restaurants.Recall {
		t.Errorf("alphanum+negative recall %v should be below positive-only %v",
			negAlpha.Restaurants.Recall, positive.Restaurants.Recall)
	}
	if negAlpha.Restaurants.Recall < 0.5 {
		t.Errorf("alphanum+negative recall = %v, paper: 70%%", negAlpha.Restaurants.Recall)
	}
}

func TestFunctionalityAblationRuns(t *testing.T) {
	rows := FunctionalityAblation(smallOpt)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Instances.F1 == 0 {
			t.Errorf("mode %s produced nothing", r.Name)
		}
	}
}

func TestEvalRelationsJudgesInverses(t *testing.T) {
	lits := store.NewLiterals()
	b1 := store.NewBuilder("o1", lits, nil)
	b2 := store.NewBuilder("o2", lits, nil)
	o1, o2 := b1.Build(), b2.Build()
	_ = o1
	_ = o2
	// Construct a fake alignment over a dataset with an inverted gold.
	d := gen.World(gen.WorldConfig{Seed: 7, People: 200, Cities: 20, Companies: 10,
		Movies: 40, Albums: 30, Books: 30})
	w1, w2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(w1, w2, core.Config{MaxIterations: 3}).Run()
	ev := EvalRelations(w1, w2, res.Relations12, d.RelGold)
	if ev.Aligned == 0 {
		t.Fatal("no judged relations")
	}
	if ev.Precision() < 0.5 {
		t.Errorf("relation precision = %v, suspiciously low", ev.Precision())
	}
}

func TestEvalClassesAncestorRule(t *testing.T) {
	// A subclass statement into an ancestor of the gold class is correct.
	d := gen.Movies(gen.MoviesConfig{Seed: 7, People: 300, Movies: 80})
	o1, o2, err := d.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.New(o1, o2, core.Config{MaxIterations: 3}).Run()
	strict := EvalClasses(o1, o2, res.Classes12, d.ClassGold, 0.9)
	loose := EvalClasses(o1, o2, res.Classes12, d.ClassGold, 0.1)
	if strict.Aligned > loose.Aligned {
		t.Error("higher threshold kept more alignments")
	}
	if strict.Aligned > 0 && strict.Precision() < loose.Precision()-0.2 {
		t.Errorf("precision at 0.9 (%v) far below 0.1 (%v)", strict.Precision(), loose.Precision())
	}
}

func TestCountClassAlignments(t *testing.T) {
	as := []core.ClassAlignment{
		{Sub: 1, Super: 10, P: 0.9},
		{Sub: 1, Super: 11, P: 0.5},
		{Sub: 2, Super: 10, P: 0.3},
	}
	if got := CountClassAlignments(as, 0.4); got != 1 {
		t.Fatalf("count@0.4 = %d, want 1", got)
	}
	if got := CountClassAlignments(as, 0.2); got != 2 {
		t.Fatalf("count@0.2 = %d, want 2", got)
	}
}

func TestInvertRelGold(t *testing.T) {
	gold := map[string]string{
		"a:actedIn": "b:starring⁻¹",
		"a:born":    "b:birth",
	}
	inv := invertRelGold(gold)
	if inv["b:starring"] != "a:actedIn⁻¹" {
		t.Errorf("inverted pair wrong: %v", inv)
	}
	if inv["b:birth"] != "a:born" {
		t.Errorf("plain pair wrong: %v", inv)
	}
}
