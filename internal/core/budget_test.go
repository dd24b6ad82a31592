package core

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/modular"
	"repro/internal/transform"
)

// TestEveryEntryPointEnforcesTransitionBudget runs every public analysis
// with a transition budget far below the model's size: each one builds its
// model through PrepareContext, so each must fail with the typed budget
// error instead of exploring past the bound.
func TestEveryEntryPointEnforcesTransitionBudget(t *testing.T) {
	a := Analyzer{MaxTransitions: 100}
	ar := arch.Architecture1()
	const msg = arch.MessageM
	cat, prot := transform.Confidentiality, transform.Unencrypted
	ctx := t.Context()
	cases := []struct {
		name string
		run  func() error
	}{
		{"PrepareContext", func() error { _, err := a.PrepareContext(ctx, ar, msg, cat, prot); return err }},
		{"Analyze", func() error { _, err := a.AnalyzeContext(ctx, ar, msg, cat, prot); return err }},
		{"AnalyzeAll", func() error { _, err := a.AnalyzeAllContext(ctx, ar, msg); return err }},
		{"Compare", func() error { _, err := a.CompareContext(ctx, []*arch.Architecture{ar}, msg); return err }},
		{"Sweep", func() error {
			_, err := a.SweepContext(ctx, ar, msg, cat, prot, SweepPatchRate, arch.Telematics, "", []float64{52})
			return err
		}},
		{"Metrics", func() error { _, err := a.Metrics(ar, msg, cat, prot); return err }},
		{"AnalyzeComponents", func() error { _, err := a.AnalyzeComponents(ar, msg, cat, prot); return err }},
		{"AttackPaths", func() error { _, err := a.AttackPaths(ar, msg, cat, prot, 2); return err }},
		{"MostProbableAttackPath", func() error { _, err := a.MostProbableAttackPath(ar, msg, cat, prot); return err }},
		{"CriticalComponents", func() error { _, err := a.CriticalComponents(ar, msg, cat, prot); return err }},
		{"CheckProperty", func() error {
			_, err := a.CheckPropertyContext(ctx, ar, msg, cat, prot, `P=? [ F<=1 "violated" ]`)
			return err
		}},
		{"Uncertainty", func() error { _, err := a.Uncertainty(ar, msg, cat, prot, UncertaintyOptions{Samples: 2}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); !errors.Is(err, modular.ErrBudgetExceeded) {
				t.Fatalf("err = %v, want modular.ErrBudgetExceeded", err)
			}
		})
	}
}
