package literal

import "strings"

// JaroWinkler scores two strings with the Jaro-Winkler similarity, the
// classic record-linkage measure for short name-like strings (the lineage
// PARIS inherits from, Section 2 of the paper). It is symmetric, in [0, 1],
// and 1 for identical strings.
type JaroWinkler struct {
	// PrefixScale is the Winkler prefix bonus factor; zero means the
	// conventional 0.1. Values above 0.25 are clamped to keep the score
	// within [0, 1].
	PrefixScale float64
	// MinSim truncates scores below the floor to 0.
	MinSim float64
}

// Sim implements Comparator.
func (j JaroWinkler) Sim(a, b string) float64 {
	sim := j.score([]rune(a), []rune(b))
	if sim < j.MinSim {
		return 0
	}
	return sim
}

func (j JaroWinkler) score(a, b []rune) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := len(a)
	if len(b) > window {
		window = len(b)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(a))
	matchB := make([]bool, len(b))
	matches := 0
	for i, ra := range a {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(b) {
			hi = len(b)
		}
		for k := lo; k < hi; k++ {
			if !matchB[k] && b[k] == ra {
				matchA[i] = true
				matchB[k] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Transpositions: matched characters out of order.
	transpositions := 0
	k := 0
	for i := range a {
		if !matchA[i] {
			continue
		}
		for !matchB[k] {
			k++
		}
		if a[i] != b[k] {
			transpositions++
		}
		k++
	}
	m := float64(matches)
	// Each float64 conversion rounds its product (x/2 compiles to x*0.5),
	// so no architecture fuses it into an FMA and scores agree everywhere.
	jaro := (m/float64(len(a)) + m/float64(len(b)) + (m-float64(float64(transpositions)/2))/m) / 3

	// Winkler prefix bonus, up to 4 shared leading characters.
	scale := j.PrefixScale
	if scale == 0 {
		scale = 0.1
	}
	if scale > 0.25 {
		scale = 0.25
	}
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return jaro + float64(float64(prefix)*scale*(1-jaro))
}

// DateProximity compares date literals: identical calendar dates score 1
// even across the common "YYYY-MM-DD" and "DD/MM/YYYY" renderings, dates in
// the same year score YearSim, everything else 0. It repairs exactly the
// cross-KB date-format divergence that defeats plain string identity
// (Section 5.3's "datatype conversions").
type DateProximity struct {
	// YearSim is the score for same-year, different-day dates. Zero means
	// 0 (no partial credit).
	YearSim float64
}

// Sim implements Comparator.
func (d DateProximity) Sim(a, b string) float64 {
	ya, ma, da, okA := parseDate(a)
	yb, mb, db, okB := parseDate(b)
	if !okA || !okB {
		return Exact{}.Sim(a, b)
	}
	if ya == yb && ma == mb && da == db {
		return 1
	}
	if ya == yb {
		return d.YearSim
	}
	return 0
}

// parseDate accepts "YYYY-MM-DD" and "DD/MM/YYYY".
func parseDate(s string) (year, month, day string, ok bool) {
	s = strings.TrimSpace(s)
	switch {
	case len(s) == 10 && s[4] == '-' && s[7] == '-':
		return s[0:4], s[5:7], s[8:10], allDigits(s[0:4], s[5:7], s[8:10])
	case len(s) == 10 && s[2] == '/' && s[5] == '/':
		return s[6:10], s[3:5], s[0:2], allDigits(s[6:10], s[3:5], s[0:2])
	default:
		return "", "", "", false
	}
}

func allDigits(parts ...string) bool {
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			if p[i] < '0' || p[i] > '9' {
				return false
			}
		}
	}
	return true
}
