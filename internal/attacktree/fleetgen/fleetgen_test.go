package fleetgen

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/service"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Count: 20}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 20 {
		t.Fatalf("count = %d, want 20", len(a))
	}
	for i := range a {
		ca, err := a[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ca, cb) {
			t.Fatalf("tree %d differs across identical seeds", i)
		}
	}
	// A different seed yields a different fleet.
	c, err := Generate(Spec{Seed: 43, Count: 20})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		ca, _ := a[i].CanonicalJSON()
		cc, _ := c[i].CanonicalJSON()
		if bytes.Equal(ca, cc) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed does not influence the fleet")
	}
}

func TestGenerateRespectsLeafCap(t *testing.T) {
	trees, err := Generate(Spec{Seed: 7, Count: 50, MaxLeaves: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if n := len(tr.Leaves()); n == 0 || n > 6 {
			t.Fatalf("tree %s has %d leaves, want 1..6", tr.Name, n)
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	if _, err := Generate(Spec{Seed: 1}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := Generate(Spec{Seed: 1, Count: 1, CountermeasureProb: 2}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}

// TestFleetBatchSolves pushes a small generated fleet through the engine's
// batch path — the generator → batch solve round trip
// BenchmarkAttackTreeFleet measures.
func TestFleetBatchSolves(t *testing.T) {
	reqs, err := Requests(Spec{Seed: 11, Count: 8, MaxLeaves: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(service.EngineOptions{})
	for i, item := range e.RunBatch(context.Background(), reqs, 4) {
		if item.Err != nil {
			t.Fatalf("request %d: %v", i, item.Err)
		}
		tr := item.Outcome.Tree
		if tr == nil || tr.TopEventProbability < 0 || tr.TopEventProbability > 1 {
			t.Fatalf("request %d: implausible outcome %+v", i, tr)
		}
	}
}
