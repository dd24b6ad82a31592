// Package cvss implements the CVSS v2 exploitability subscore with the
// automotive interpretation the paper adopts (Table 1): Access Vector,
// Access Complexity and Authentication metrics combine into
//
//	σ = 20 · AV · AC · Au          (paper Eq. 11)
//	η = σ − 1.3                    (paper Eq. 12, floored at 0)
//
// with η normalised to exploits per year. Vectors use the standard CVSS v2
// spelling, e.g. "AV:N/AC:H/Au:M".
package cvss

import (
	"errors"
	"fmt"
	"strings"
)

// AccessVector describes where an attacker must be to exploit the
// component.
type AccessVector int

// Access vector values (paper Table 1).
const (
	AVLocal    AccessVector = iota // accessible only on device
	AVAdjacent                     // accessible via directly attached bus
	AVNetwork                      // accessible via any number of networks
)

// AccessComplexity describes how hardened the component is.
type AccessComplexity int

// Access complexity values.
const (
	ACHigh   AccessComplexity = iota // device is generally secured
	ACMedium                         // device is partially secured
	ACLow                            // device is not secured
)

// Authentication describes how many authentication steps an attack
// requires.
type Authentication int

// Authentication values.
const (
	AuMultiple Authentication = iota // multiple authentication steps
	AuSingle                         // one authentication step
	AuNone                           // no authentication required
)

// Metric weights from CVSS v2 (paper Table 1).
var (
	avWeight = map[AccessVector]float64{AVLocal: 0.395, AVAdjacent: 0.646, AVNetwork: 1.0}
	acWeight = map[AccessComplexity]float64{ACHigh: 0.35, ACMedium: 0.61, ACLow: 0.71}
	auWeight = map[Authentication]float64{AuMultiple: 0.45, AuSingle: 0.56, AuNone: 0.704}
)

// Vector is a CVSS v2 exploitability vector.
type Vector struct {
	AV AccessVector
	AC AccessComplexity
	Au Authentication
}

// ErrBadVector reports an unparsable CVSS vector string.
var ErrBadVector = errors.New("cvss: invalid vector")

// Parse reads a vector in "AV:x/AC:y/Au:z" form (case-sensitive metric
// values, as in the standard).
func Parse(s string) (Vector, error) {
	var v Vector
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return v, fmt.Errorf("%w: %q (want AV:x/AC:y/Au:z)", ErrBadVector, s)
	}
	seen := make(map[string]bool)
	for _, p := range parts {
		kv := strings.SplitN(p, ":", 2)
		if len(kv) != 2 {
			return v, fmt.Errorf("%w: component %q", ErrBadVector, p)
		}
		key, val := kv[0], kv[1]
		if seen[key] {
			return v, fmt.Errorf("%w: duplicate metric %q", ErrBadVector, key)
		}
		seen[key] = true
		switch key {
		case "AV":
			switch val {
			case "L":
				v.AV = AVLocal
			case "A":
				v.AV = AVAdjacent
			case "N":
				v.AV = AVNetwork
			default:
				return v, fmt.Errorf("%w: AV:%q", ErrBadVector, val)
			}
		case "AC":
			switch val {
			case "H":
				v.AC = ACHigh
			case "M":
				v.AC = ACMedium
			case "L":
				v.AC = ACLow
			default:
				return v, fmt.Errorf("%w: AC:%q", ErrBadVector, val)
			}
		case "Au":
			switch val {
			case "M":
				v.Au = AuMultiple
			case "S":
				v.Au = AuSingle
			case "N":
				v.Au = AuNone
			default:
				return v, fmt.Errorf("%w: Au:%q", ErrBadVector, val)
			}
		default:
			return v, fmt.Errorf("%w: unknown metric %q", ErrBadVector, key)
		}
	}
	if !seen["AV"] || !seen["AC"] || !seen["Au"] {
		return v, fmt.Errorf("%w: %q missing a metric", ErrBadVector, s)
	}
	return v, nil
}

// String renders the vector in standard notation.
func (v Vector) String() string {
	av := map[AccessVector]string{AVLocal: "L", AVAdjacent: "A", AVNetwork: "N"}[v.AV]
	ac := map[AccessComplexity]string{ACHigh: "H", ACMedium: "M", ACLow: "L"}[v.AC]
	au := map[Authentication]string{AuMultiple: "M", AuSingle: "S", AuNone: "N"}[v.Au]
	return fmt.Sprintf("AV:%s/AC:%s/Au:%s", av, ac, au)
}

// Score returns the exploitability subscore σ = 20·AV·AC·Au (paper Eq. 11).
func (v Vector) Score() float64 {
	return 20 * avWeight[v.AV] * acWeight[v.AC] * auWeight[v.Au]
}

// Rate returns the exploit-discovery rate η = σ − 1.3 per year (paper
// Eq. 12), floored at zero: a component can not have a negative discovery
// rate.
func (v Vector) Rate() float64 {
	r := v.Score() - 1.3
	if r < 0 {
		return 0
	}
	return r
}

// Weights returns the three metric weights, useful for reporting Table 1.
func (v Vector) Weights() (av, ac, au float64) {
	return avWeight[v.AV], acWeight[v.AC], auWeight[v.Au]
}
