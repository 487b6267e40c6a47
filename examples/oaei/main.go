// OAEI reproduction example: generate the person and restaurant corpora of
// the paper's Section 6.2 (Table 1), align them with default settings, and
// evaluate against the gold standard — including the Section 6.3 variant
// with the alphanumeric literal normalizer and negative evidence.
package main

import (
	"context"
	"fmt"
	"log"

	paris "repro"
	"repro/internal/gen"
)

func main() {
	fmt.Println("== person corpus (paper Table 1, row 1) ==")
	person := gen.Persons(gen.PersonsConfig{Seed: 42})
	alignAndReport(person, nil, paris.Config{})

	fmt.Println("\n== restaurant corpus (paper Table 1, row 2) ==")
	restaurant := gen.Restaurants(gen.RestaurantsConfig{Seed: 42})
	alignAndReport(restaurant, nil, paris.Config{})

	fmt.Println("\n== restaurant with alphanum literals + negative evidence (Section 6.3) ==")
	alignAndReport(restaurant, paris.AlphaNum, paris.Config{NegativeEvidence: true})
}

func alignAndReport(d *gen.Dataset, norm paris.Normalizer, cfg paris.Config) {
	o1, o2, err := d.Build(norm)
	if err != nil {
		log.Fatal(err)
	}
	res, err := paris.AlignContext(context.Background(), o1, o2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gold pairs: %d\n", d.Gold.Len())
	fmt.Printf("instances:  %s\n", d.Gold.Evaluate(res.InstanceMap()))
	fmt.Printf("iterations: %d\n", len(res.Iterations))

	fmt.Println("discovered relation inclusions:")
	for _, ra := range paris.MaxRelAlignments(res.Relations12) {
		name := o1.RelationName(ra.Sub)
		if name[len(name)-1] == '¹' { // skip inverse rows for brevity
			continue
		}
		fmt.Printf("  %-45s ⊆ %-45s %.2f\n", name, o2.RelationName(ra.Super), ra.P)
	}
}
