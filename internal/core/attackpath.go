package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/modular"
	"repro/internal/transform"
)

// AttackStep is one transition of the most probable attack path: the state
// change, its rate, and the embedded-chain probability of taking it.
type AttackStep struct {
	// Description names the component event, e.g. "exploit 3G interface on
	// NET" or "break protection of m".
	Description string
	Rate        float64
	Probability float64
	// State is the state vector reached after the step, rendered for
	// display.
	State string
}

// AttackPath is the most probable exploit sequence from the secure initial
// state to a state violating the analysed security category — the paper's
// Figure-1 narrative ("the telematics unit is hacked, then …") recovered
// automatically from the model.
type AttackPath struct {
	Steps []AttackStep
	// Probability is the product of the embedded-chain step probabilities:
	// the chance that, jump for jump, the system takes exactly this route.
	Probability float64
}

// ErrNoAttackPath is returned when no violated state is reachable.
var ErrNoAttackPath = errors.New("core: no attack path to a violated state")

// MostProbableAttackPath finds the maximum-probability path (over the
// embedded jump chain) from the initial state to any violated state: the
// first of AttackPaths.
func (a Analyzer) MostProbableAttackPath(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) (*AttackPath, error) {
	paths, err := a.AttackPaths(ar, msgName, cat, prot, 1)
	if err != nil {
		return nil, err
	}
	return paths[0], nil
}

// describeTransition names the state change in component terms.
func describeTransition(m *modular.Model, from, to []int) string {
	var parts []string
	for i := range from {
		if from[i] == to[i] {
			continue
		}
		name := m.Vars[i].Name
		switch {
		case strings.HasPrefix(name, "x_"):
			rest := strings.TrimPrefix(name, "x_")
			if to[i] > from[i] {
				parts = append(parts, fmt.Sprintf("exploit interface %s (now %d)", rest, to[i]))
			} else {
				parts = append(parts, fmt.Sprintf("patch interface %s (now %d)", rest, to[i]))
			}
		case strings.HasPrefix(name, "bg_"):
			if to[i] > from[i] {
				parts = append(parts, fmt.Sprintf("exploit bus guardian of %s", strings.TrimPrefix(name, "bg_")))
			} else {
				parts = append(parts, fmt.Sprintf("patch bus guardian of %s", strings.TrimPrefix(name, "bg_")))
			}
		case strings.HasPrefix(name, "prot_"):
			if to[i] < from[i] {
				parts = append(parts, fmt.Sprintf("break protection of %s", strings.TrimPrefix(name, "prot_")))
			} else {
				parts = append(parts, fmt.Sprintf("re-key protection of %s", strings.TrimPrefix(name, "prot_")))
			}
		default:
			parts = append(parts, fmt.Sprintf("%s: %d→%d", name, from[i], to[i]))
		}
	}
	if len(parts) == 0 {
		return "(no state change)"
	}
	return strings.Join(parts, ", ")
}

// String renders the path as a numbered exploit narrative.
func (p *AttackPath) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "%2d. %-55s rate %-6.3g p=%.3f\n", i+1, s.Description, s.Rate, s.Probability)
	}
	fmt.Fprintf(&b, "    path probability (jump chain): %.3g\n", p.Probability)
	return b.String()
}
