package attacktree

import (
	"fmt"
	"strconv"
)

// CSL query synthesis: the standard attack-tree questions phrased against
// the compiled model's "goal" label and reward structures, in the property
// syntax `internal/csl` parses. Keeping these as strings (rather than
// constructing csl.Property values directly) means the service's property
// pipeline — syntax checking at submission, caching keyed on the source
// text, the checker itself — treats synthesized and hand-written queries
// identically.

func formatTime(t float64) string {
	return strconv.FormatFloat(t, 'g', -1, 64)
}

// TopEventQuery is the probability the top event occurs within horizon
// years (unbounded reachability when horizon <= 0).
func TopEventQuery(horizon float64) string {
	if horizon <= 0 {
		return `P=? [ F "goal" ]`
	}
	return fmt.Sprintf(`P=? [ F<=%s "goal" ]`, formatTime(horizon))
}

// MTTAQuery is the mean time to attack: the expected years until the top
// event first holds.
func MTTAQuery() string {
	return fmt.Sprintf(`R{%q}=? [ F "goal" ]`, RewardTime)
}
