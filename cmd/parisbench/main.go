// Command parisbench regenerates every table and figure of the paper's
// evaluation section on the synthetic reproduction corpora. The runners
// table in main maps each -exp name to one table, figure or ablation;
// -exp all runs them in order.
//
// Usage:
//
//	parisbench [-exp all|table1|table2|table3|table4|table5|fig1|fig2|theta|allpairs|negative|fun]
//	           [-seed N] [-scale F]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, table2, table3, table4, table5, fig1, fig2, theta, allpairs, negative, fun)")
	seed := flag.Int64("seed", 42, "dataset generator seed")
	scale := flag.Float64("scale", 1, "size multiplier for the large corpora")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("parisbench"))
		return
	}

	opt := bench.Options{Seed: *seed, Scale: *scale}
	runners := map[string]func(bench.Options){
		"table1":   table1,
		"table2":   table2,
		"table3":   table3,
		"table4":   table4,
		"table5":   table5,
		"fig1":     figures,
		"fig2":     figures,
		"theta":    theta,
		"allpairs": allPairs,
		"negative": negative,
		"fun":      functionality,
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "table2", "table3", "table4", "table5", "fig1", "theta", "allpairs", "negative", "fun"} {
			runners[name](opt)
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "parisbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	run(opt)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table1(opt bench.Options) {
	header("Table 1 — OAEI-style benchmark (person, restaurant)")
	for _, r := range bench.Table1(opt) {
		fmt.Print(r.Report())
	}
}

func table2(opt bench.Options) {
	header("Table 2 — corpus statistics")
	for _, s := range bench.Table2(opt) {
		fmt.Printf("%-10s %9d instances %8d classes %5d relations %9d facts\n",
			s.Name, s.Instances, s.Classes, s.Relations, s.Facts)
	}
}

func table3(opt bench.Options) {
	header("Table 3 — world alignment (ykb vs dkb) over iterations")
	fmt.Print(bench.Table3(opt).Report())
}

func table4(opt bench.Options) {
	header("Table 4 — discovered relation alignments (ykb ⊆ dkb)")
	for _, ex := range bench.Table4(opt) {
		fmt.Printf("%-22s ⊆ %-26s %.2f\n", ex.Sub, ex.Super, ex.P)
	}
}

func table5(opt bench.Options) {
	header("Table 5 — movie alignment (ykb-film vs ikb) over iterations")
	fmt.Print(bench.Table5(opt).Report())
}

func figures(opt bench.Options) {
	header("Figures 1 & 2 — class alignment by probability threshold")
	fmt.Printf("%10s %12s %10s\n", "threshold", "precision", "classes")
	for _, p := range bench.Figures1And2(opt) {
		fmt.Printf("%10.1f %11.1f%% %10d\n", p.Threshold, 100*p.Precision, p.Count)
	}
}

func theta(opt bench.Options) {
	header("Section 6.3 — θ sweep (final scores must be invariant)")
	results := bench.ThetaSweep(opt)
	for _, r := range results {
		fmt.Printf("θ=%.3f  instances: %s  (%d relation scores)\n", r.Theta, r.Instances, len(r.RelScores))
	}
	// Compare every setting against the paper's default θ = 0.1.
	var base map[string]float64
	for _, r := range results {
		if r.Theta == 0.1 {
			base = r.RelScores
		}
	}
	for _, r := range results {
		same := len(r.RelScores) == len(base)
		maxDev := 0.0
		for k, v := range base {
			d := r.RelScores[k] - v
			if d < 0 {
				d = -d
			}
			if d > maxDev {
				maxDev = d
			}
		}
		// The alignment set must be identical; score values agree up to the
		// convergence tolerance of the fixpoint. θ = 0.001 is the exception:
		// on the seed-42 restaurant corpus it deviates by up to 0.056.
		same = same && maxDev < 0.02
		fmt.Printf("θ=%.3f same alignment set and scores within 0.02 of θ=0.1: %v (max dev %.4f)\n",
			r.Theta, same, maxDev)
	}
}

func allPairs(opt bench.Options) {
	header("Section 6.3 — all equalities vs maximal assignment")
	for _, r := range bench.AllPairsAblation(opt) {
		fmt.Printf("%-24s %s\n", r.Name, r.Instances)
	}
}

func negative(opt bench.Options) {
	header("Section 6.3 — negative evidence (Equation 14)")
	for _, r := range bench.NegativeEvidenceAblation(opt) {
		fmt.Printf("%-40s all: %s   restaurants only: %s\n", r.Name, r.Instances, r.Restaurants)
	}
}

func functionality(opt bench.Options) {
	header("Appendix A — global functionality definitions")
	for _, r := range bench.FunctionalityAblation(opt) {
		fmt.Printf("%-18s %s\n", r.Name, r.Instances)
	}
}
