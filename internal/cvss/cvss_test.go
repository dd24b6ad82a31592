package cvss

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPaperSection32Example(t *testing.T) {
	// "the Access Vector is across multiple networks (AV = 1) ... access
	// complexity is high (AC = 0.35) ... multiple authentication steps
	// (Au = 0.45). From Equation (11), σ = 3.15 ... η = 1.85."
	v := mustParse(t, "AV:N/AC:H/Au:M")
	if got := v.Score(); math.Abs(got-3.15) > 1e-12 {
		t.Fatalf("σ = %v, want 3.15", got)
	}
	if got := v.Rate(); math.Abs(got-1.85) > 1e-12 {
		t.Fatalf("η = %v, want 1.85", got)
	}
}

// TestTable2Rates checks every CVSS vector in the paper's Table 2 against
// its (rounded) published rate.
func TestTable2Rates(t *testing.T) {
	cases := []struct {
		vector string
		want   float64 // Table 2 value, rounded to one decimal
	}{
		{"AV:A/AC:H/Au:S", 1.2}, // PA, PS, GW, message CMAC/AES
		{"AV:A/AC:L/Au:S", 3.8}, // telematics CAN interface
		{"AV:N/AC:H/Au:M", 1.9}, // telematics 3G interface
		{"AV:L/AC:H/Au:S", 0.2}, // FlexRay bus guardian
	}
	for _, c := range cases {
		v := mustParse(t, c.vector)
		got := v.Rate()
		if math.Abs(got-c.want) > 0.06 {
			t.Fatalf("%s: η = %v, Table 2 says %v", c.vector, got, c.want)
		}
	}
}

func TestTable1Weights(t *testing.T) {
	// Paper Table 1 values.
	checks := []struct {
		vector     string
		av, ac, au float64
	}{
		{"AV:L/AC:H/Au:M", 0.395, 0.35, 0.45},
		{"AV:A/AC:M/Au:S", 0.646, 0.61, 0.56},
		{"AV:N/AC:L/Au:N", 1.0, 0.71, 0.704},
	}
	for _, c := range checks {
		av, ac, au := mustParse(t, c.vector).Weights()
		if av != c.av || ac != c.ac || au != c.au {
			t.Fatalf("%s: weights (%v,%v,%v)", c.vector, av, ac, au)
		}
	}
}

func TestRateFloor(t *testing.T) {
	// Weakest possible exposure: σ = 20·0.395·0.35·0.45 = 1.24425 < 1.3.
	v := mustParse(t, "AV:L/AC:H/Au:M")
	if got := v.Rate(); got != 0 {
		t.Fatalf("η = %v, want floor at 0", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"AV:L/AC:H/Au:M", "AV:A/AC:M/Au:S", "AV:N/AC:L/Au:N",
	} {
		v, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != s {
			t.Fatalf("round trip %q -> %q", s, v.String())
		}
	}
}

func TestParseOrderIndependent(t *testing.T) {
	a := mustParse(t, "AV:N/AC:H/Au:M")
	b := mustParse(t, "Au:M/AV:N/AC:H")
	if a != b {
		t.Fatalf("order matters: %v vs %v", a, b)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"", "AV:N", "AV:N/AC:H", "AV:X/AC:H/Au:M", "AV:N/AC:X/Au:M",
		"AV:N/AC:H/Au:X", "XX:N/AC:H/Au:M", "AV:N/AC:H/Au:M/E:F",
		"AV:N/AV:N/Au:M", "AVN/AC:H/Au:M",
	} {
		if _, err := Parse(s); !errors.Is(err, ErrBadVector) {
			t.Fatalf("%q: err = %v", s, err)
		}
	}
}

func TestScoreMonotonicity(t *testing.T) {
	// More exposure (network, low complexity, no auth) must not decrease
	// the score.
	weak := mustParse(t, "AV:L/AC:H/Au:M")
	strong := mustParse(t, "AV:N/AC:L/Au:N")
	if weak.Score() >= strong.Score() {
		t.Fatalf("monotonicity violated: %v >= %v", weak.Score(), strong.Score())
	}
}

// TestParseMalformedTable is a fuzz-style sweep of hostile vector strings:
// every case must be rejected with ErrBadVector, never accepted or panicked
// on. It locks in duplicate-metric rejection ("AV:N/AV:N/Au:M" parses three
// components but names AV twice) alongside truncation, case, whitespace and
// delimiter abuse.
func TestParseMalformedTable(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"one metric", "AV:N"},
		{"two metrics", "AV:N/AC:H"},
		{"four metrics", "AV:N/AC:H/Au:M/E:F"},
		{"duplicate AV same value", "AV:N/AV:N/Au:M"},
		{"duplicate AV different value", "AV:N/AV:L/AC:H"},
		{"duplicate AC", "AC:H/AC:L/Au:M"},
		{"duplicate Au", "Au:M/Au:N/AV:N"},
		{"all three duplicates of one", "AV:N/AV:N/AV:N"},
		{"missing colon", "AVN/AC:H/Au:M"},
		{"empty component", "/AC:H/Au:M"},
		{"empty value", "AV:/AC:H/Au:M"},
		{"empty key", ":N/AC:H/Au:M"},
		{"lowercase key", "av:N/AC:H/Au:M"},
		{"lowercase value", "AV:n/AC:H/Au:M"},
		{"unknown key", "XX:N/AC:H/Au:M"},
		{"unknown AV value", "AV:X/AC:H/Au:M"},
		{"unknown AC value", "AV:N/AC:X/Au:M"},
		{"unknown Au value", "AV:N/AC:H/Au:X"},
		{"leading space", " AV:N/AC:H/Au:M"},
		{"inner space", "AV:N / AC:H/Au:M"},
		{"trailing slash", "AV:N/AC:H/Au:M/"},
		{"double slash", "AV:N//AC:H"},
		{"value with extra colon", "AV:N:N/AC:H/Au:M"},
		{"multi-char value", "AV:NN/AC:H/Au:M"},
		{"unicode value", "AV:Ｎ/AC:H/Au:M"},
		{"nul byte", "AV:N/AC:H/Au:M\x00"},
		{"long garbage", strings.Repeat("AV:N/", 100)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Parse(tc.input)
			if err == nil {
				t.Fatalf("Parse(%q) accepted as %v", tc.input, v)
			}
			if !errors.Is(err, ErrBadVector) {
				t.Fatalf("Parse(%q): err = %v, want ErrBadVector", tc.input, err)
			}
		})
	}
}

// FuzzParse checks the parser's invariants on arbitrary input: it never
// panics, a rejection always wraps ErrBadVector, and an accepted vector
// round-trips through String back to the identical value with a rate that
// is finite and non-negative.
func FuzzParse(f *testing.F) {
	f.Add("AV:N/AC:H/Au:M")
	f.Add("Au:M/AV:N/AC:H")
	f.Add("AV:N/AV:N/Au:M")
	f.Add("AV:L/AC:L/Au:N")
	f.Add("")
	f.Add("AV:N/AC:H/Au:M/E:F")
	f.Add("AVN/AC:H/Au:M")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		if err != nil {
			if !errors.Is(err, ErrBadVector) {
				t.Fatalf("Parse(%q): err = %v, want ErrBadVector", s, err)
			}
			return
		}
		again, err := Parse(v.String())
		if err != nil {
			t.Fatalf("Parse(%q) -> %v, but String %q does not re-parse: %v", s, v, v.String(), err)
		}
		if again != v {
			t.Fatalf("round trip %q -> %v -> %v", s, v, again)
		}
		if r := v.Rate(); math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("Parse(%q): rate %v out of range", s, r)
		}
	})
}

// mustParse is Parse for known-good literals.
func mustParse(t *testing.T, s string) Vector {
	t.Helper()
	v, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
