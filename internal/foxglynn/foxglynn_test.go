package foxglynn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(-1, 1e-10); !errors.Is(err, ErrBadLambda) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compute(math.NaN(), 1e-10); !errors.Is(err, ErrBadLambda) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compute(math.Inf(1), 1e-10); !errors.Is(err, ErrBadLambda) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compute(1, 0); !errors.Is(err, ErrBadAccuracy) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compute(1, 1.5); !errors.Is(err, ErrBadAccuracy) {
		t.Fatalf("err = %v", err)
	}
}

func TestComputeZeroLambda(t *testing.T) {
	r, err := Compute(0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Left != 0 || r.Right != 0 || len(r.Weights) != 1 || r.Weights[0] != 1 {
		t.Fatalf("result = %+v", r)
	}
}

func TestWeightsSumToOne(t *testing.T) {
	for _, lambda := range []float64{0.01, 0.5, 1, 5, 24.9, 25, 100, 1000, 10000} {
		r, err := Compute(lambda, 1e-12)
		if err != nil {
			t.Fatalf("lambda %v: %v", lambda, err)
		}
		var sum float64
		for _, w := range r.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("lambda %v: weights sum to %v", lambda, sum)
		}
		if r.Right-r.Left+1 != len(r.Weights) {
			t.Fatalf("lambda %v: window [%d,%d] vs %d weights", lambda, r.Left, r.Right, len(r.Weights))
		}
	}
}

func TestWeightsMatchExactPMF(t *testing.T) {
	for _, lambda := range []float64{0.3, 2, 10, 30, 150, 2500} {
		r, err := Compute(lambda, 1e-13)
		if err != nil {
			t.Fatalf("lambda %v: %v", lambda, err)
		}
		for i, w := range r.Weights {
			k := r.Left + i
			exact := pmf(lambda, k)
			// Relative error where the pmf is non-negligible.
			if exact > 1e-10 {
				rel := math.Abs(w-exact) / exact
				if rel > 1e-8 {
					t.Fatalf("lambda %v k %d: w %v exact %v rel %v", lambda, k, w, exact, rel)
				}
			}
		}
	}
}

func TestTruncationCoversMass(t *testing.T) {
	for _, lambda := range []float64{1, 9, 60, 900} {
		acc := 1e-9
		r, err := Compute(lambda, acc)
		if err != nil {
			t.Fatal(err)
		}
		var covered float64
		for k := r.Left; k <= r.Right; k++ {
			covered += pmf(lambda, k)
		}
		if covered < 1-10*acc {
			t.Fatalf("lambda %v: window [%d,%d] covers only %v", lambda, r.Left, r.Right, covered)
		}
	}
}

func TestWindowContainsMode(t *testing.T) {
	for _, lambda := range []float64{0.1, 3, 40, 500} {
		r, err := Compute(lambda, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		mode := int(math.Floor(lambda))
		if mode < r.Left || mode > r.Right {
			t.Fatalf("lambda %v: mode %d outside [%d,%d]", lambda, mode, r.Left, r.Right)
		}
	}
}

func TestPMFOracle(t *testing.T) {
	// Hand values: Poisson(2): P[0]=e^-2, P[2]=2e^-2.
	if got, want := pmf(2, 0), math.Exp(-2); math.Abs(got-want) > 1e-15 {
		t.Fatalf("pmf(2,0) = %v", got)
	}
	if got, want := pmf(2, 2), 2*math.Exp(-2); math.Abs(got-want) > 1e-15 {
		t.Fatalf("pmf(2,2) = %v", got)
	}
	if pmf(2, -1) != 0 {
		t.Fatal("negative k should have zero pmf")
	}
	if pmf(0, 0) != 1 || pmf(0, 3) != 0 {
		t.Fatal("lambda=0 pmf wrong")
	}
}

// Property: for arbitrary positive lambdas, weights are non-negative, sum to
// 1 and the mean of the truncated distribution is close to lambda.
func TestQuickMoments(t *testing.T) {
	f := func(raw float64) bool {
		lambda := math.Abs(math.Mod(raw, 5000))
		if math.IsNaN(lambda) {
			return true
		}
		r, err := Compute(lambda, 1e-12)
		if err != nil {
			return false
		}
		var sum, mean float64
		for i, w := range r.Weights {
			if w < 0 {
				return false
			}
			sum += w
			mean += w * float64(r.Left+i)
		}
		if math.Abs(sum-1) > 1e-10 {
			return false
		}
		tol := 1e-6 + lambda*1e-9
		if lambda > 0 {
			tol = math.Max(1e-6, lambda*1e-6)
		}
		return math.Abs(mean-lambda) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsWindowGrowsWithLambda(t *testing.T) {
	// The truncation window is O(sqrt(lambda)) wide and centred near the
	// mode, so both the span and the term count must grow monotonically in
	// q·t while staying o(lambda). Stats exposes this without recomputing
	// the window from the weight slice.
	prevTerms := 0
	for _, lambda := range []float64{1, 10, 100, 1000, 10000} {
		r, err := Compute(lambda, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		if st.Left != r.Left || st.Right != r.Right || st.Terms != len(r.Weights) {
			t.Fatalf("lambda %g: stats %+v disagree with result [%d,%d] %d weights",
				lambda, st, r.Left, r.Right, len(r.Weights))
		}
		if st.Terms != st.Right-st.Left+1 {
			t.Fatalf("lambda %g: terms %d != width %d", lambda, st.Terms, st.Right-st.Left+1)
		}
		if st.Terms <= prevTerms {
			t.Fatalf("lambda %g: window did not grow (%d -> %d terms)", lambda, prevTerms, st.Terms)
		}
		if lambda >= 100 && float64(st.Terms) > 4*math.Sqrt(lambda)*math.Sqrt(-math.Log(1e-10)) {
			t.Fatalf("lambda %g: window %d terms implausibly wide", lambda, st.Terms)
		}
		if float64(st.Left) > lambda || float64(st.Right) < lambda-1 {
			t.Fatalf("lambda %g: window [%d,%d] excludes the mode", lambda, st.Left, st.Right)
		}
		prevTerms = st.Terms
	}
}

// pmf returns the exact Poisson pmf P[X = k] for X ~ Poisson(lambda),
// evaluated in log space for numerical robustness: the oracle for Compute.
func pmf(lambda float64, k int) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
}
