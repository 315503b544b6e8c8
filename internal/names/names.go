// Package names turns "unknown name" failures into actionable errors.
// Every registry in the simulator (workloads, topology presets, power
// models) is looked up by exact string, and an off-by-one-letter flag
// value used to fail with a bare "unknown X" - leaving the user to go
// find the listing themselves. The epiphany-sweep CLI and the
// epiphany-serve HTTP 400s both route their unknown-name errors through
// Unknown, so a typo gets the same "did you mean" suggestion everywhere.
package names

import (
	"fmt"
	"sort"
	"strings"
)

// maxSuggestions bounds how many near-misses Unknown lists; past three
// the suggestion reads as a listing, and the listing is already there.
const maxSuggestions = 3

// Suggest returns the candidates closest to name - nearest first, at
// most three - under a case-insensitive edit distance, filtered to
// plausible typos: a candidate qualifies when its distance is at most
// 2, or at most a third of the typed name's length, or when one string
// is a prefix of the other (catching truncated and over-completed
// spellings like "matmul" for "matmul-cannon"). An empty slice means
// nothing was close enough to guess.
func Suggest(name string, candidates []string) []string {
	name = strings.ToLower(name)
	if name == "" {
		return nil
	}
	limit := max(2, len(name)/3)
	type scored struct {
		name string
		dist int
	}
	var close []scored
	for _, cand := range candidates {
		lc := strings.ToLower(cand)
		d := levenshtein(name, lc)
		if d == 0 {
			// Exact modulo case: the one suggestion that is certainly
			// what the user meant.
			return []string{cand}
		}
		if d <= limit || strings.HasPrefix(lc, name) || strings.HasPrefix(name, lc) {
			close = append(close, scored{cand, d})
		}
	}
	sort.Slice(close, func(i, j int) bool {
		if close[i].dist != close[j].dist {
			return close[i].dist < close[j].dist
		}
		return close[i].name < close[j].name
	})
	if len(close) > maxSuggestions {
		close = close[:maxSuggestions]
	}
	out := make([]string, len(close))
	for i, s := range close {
		out[i] = s.name
	}
	return out
}

// DidYouMean returns the canonical ` (did you mean ...?)` clause for
// name against the candidates, or "" when nothing is close enough to
// guess. It exists for errors that cannot use Unknown wholesale - the
// topology-spec grammar, say, where the candidate list mixes registered
// presets with example spellings of the grammar and a "registered:"
// listing would mislead - so that the suggestion itself still reads
// identically everywhere.
func DidYouMean(name string, candidates []string) string {
	s := Suggest(name, candidates)
	if len(s) == 0 {
		return ""
	}
	return fmt.Sprintf(" (did you mean %s?)", quoteList(s))
}

// Unknown builds the canonical unknown-name error: the kind and the
// offending name, a "did you mean" clause when something registered is
// close, and the full registered list either way (it is short for every
// registry here, and saves a round trip to -list).
func Unknown(kind, name string, candidates []string) error {
	listed := strings.Join(candidates, ", ")
	if s := Suggest(name, candidates); len(s) > 0 {
		return fmt.Errorf("epiphany: unknown %s %q (did you mean %s? registered: %s)",
			kind, name, quoteList(s), listed)
	}
	return fmt.Errorf("epiphany: unknown %s %q (registered: %s)", kind, name, listed)
}

// quoteList renders suggestions as `"a", "b" or "c"`.
func quoteList(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = fmt.Sprintf("%q", n)
	}
	if len(quoted) == 1 {
		return quoted[0]
	}
	return strings.Join(quoted[:len(quoted)-1], ", ") + " or " + quoted[len(quoted)-1]
}

// levenshtein computes the edit distance between two strings with the
// classic two-row dynamic program; the inputs here are short registry
// names, so the quadratic cost is trivial.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
