package transform

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/modular"
	"repro/internal/prismlang"
)

func build(t *testing.T, a *arch.Architecture, opts Options) (*Result, *modular.Explored) {
	t.Helper()
	res, err := Build(a, arch.MessageM, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := res.Model.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res, ex
}

func TestBuildUnknownMessage(t *testing.T) {
	if _, err := Build(arch.Architecture1(), "nope", Options{}); !errors.Is(err, ErrUnknownMessage) {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildRejectsInvalidArchitecture(t *testing.T) {
	a := arch.Architecture1()
	a.Name = ""
	if _, err := Build(a, arch.MessageM, Options{}); !errors.Is(err, arch.ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestProtectionCovers(t *testing.T) {
	cases := []struct {
		p    Protection
		c    Category
		want bool
	}{
		{Unencrypted, Confidentiality, false},
		{Unencrypted, Integrity, false},
		{CMAC128, Integrity, true},
		{CMAC128, Confidentiality, false},
		{AES128, Integrity, true},
		{AES128, Confidentiality, true},
		{AES128, Availability, false},
	}
	for _, c := range cases {
		if got := c.p.Covers(c.c); got != c.want {
			t.Fatalf("%v covers %v = %v, want %v", c.p, c.c, got, c.want)
		}
	}
}

func TestVariableLayoutArch1(t *testing.T) {
	res, _ := build(t, arch.Architecture1(), Options{Category: Confidentiality, Protection: AES128})
	// 6 interfaces (PA, PS, GW×2, 3G×2) + 1 protection variable.
	if len(res.InterfaceVars) != 6 {
		t.Fatalf("interface vars = %d", len(res.InterfaceVars))
	}
	if len(res.GuardianVars) != 0 {
		t.Fatalf("guardian vars on CAN-only architecture: %v", res.GuardianVars)
	}
	if !res.HasProtVar {
		t.Fatal("AES confidentiality should have a protection variable")
	}
}

func TestVariableLayoutArch3(t *testing.T) {
	res, _ := build(t, arch.Architecture3(), Options{Category: Availability})
	if len(res.GuardianVars) != 1 {
		t.Fatalf("guardian vars = %v", res.GuardianVars)
	}
	if res.HasProtVar {
		t.Fatal("availability must not add a protection variable")
	}
}

// TestEntryPointOnlyInitialTransition verifies the attack entry point: from
// the all-secure state, only internet-facing interfaces can be exploited
// (every other bus is unexploited, Eq. 1 guard false).
func TestEntryPointOnlyInitialTransition(t *testing.T) {
	res, ex := build(t, arch.Architecture1(), Options{Category: Availability})
	init := 0
	cols, _ := ex.Chain.Rates.Row(init)
	if len(cols) != 1 {
		t.Fatalf("initial state has %d successors, want 1 (3G exploit only)", len(cols))
	}
	// The successor must set x_3G_NET to 1.
	states := vectors(ex)
	succ := states[cols[0]]
	netVar := res.InterfaceVars["3G/NET"]
	if succ[netVar.Index] != 1 {
		t.Fatalf("first transition is not the 3G internet exploit: %v", res.Model.FormatState(succ))
	}
	if got := ex.Chain.Rates.At(init, int(cols[0])); got != arch.RateTelematics3G {
		t.Fatalf("entry rate = %v, want %v", got, arch.RateTelematics3G)
	}
}

// TestFlexRayGating verifies Eq. 5: without the bus guardian, FlexRay never
// becomes exploitable, so with an intact guardian the violated label stays
// unreachable... except via the guardian path. Removing the guardian's
// exploitability (rate 0 and patched) must make the message safe forever.
func TestFlexRayGating(t *testing.T) {
	a := arch.Architecture3()
	a.Bus(arch.BusFlexRay).Guardian.ExploitRate = 0
	_, ex := build(t, a, Options{Category: Availability})
	mask, err := ex.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ex.Chain.UnboundedReachabilityVectorContext(t.Context(), mask)
	if err != nil {
		t.Fatal(err)
	}
	p := v[ex.InitIndex()]
	if p != 0 {
		t.Fatalf("availability violated with unexploitable bus guardian: P = %v", p)
	}
}

// TestCANNoGating contrasts Eq. 4: on Architecture 1 the violated states are
// reachable with probability 1 (the 3G entry point is always attackable).
func TestCANNoGating(t *testing.T) {
	_, ex := build(t, arch.Architecture1(), Options{Category: Availability})
	mask, err := ex.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ex.Chain.UnboundedReachabilityVectorContext(t.Context(), mask)
	if err != nil {
		t.Fatal(err)
	}
	p := v[ex.InitIndex()]
	if p < 1-1e-9 {
		t.Fatalf("P[eventually violated] = %v, want 1", p)
	}
}

// TestAvailabilityIgnoresProtection: encryption must not change the
// availability model at all (same state count, same label).
func TestAvailabilityIgnoresProtection(t *testing.T) {
	_, exU := build(t, arch.Architecture1(), Options{Category: Availability, Protection: Unencrypted})
	_, exA := build(t, arch.Architecture1(), Options{Category: Availability, Protection: AES128})
	if exU.N() != exA.N() {
		t.Fatalf("state counts differ: %d vs %d", exU.N(), exA.N())
	}
}

// TestInstantViolationWhenUncovered: with an unencrypted message, any state
// where a route bus is exploitable must be violated (Table 2 "instant").
func TestInstantViolationWhenUncovered(t *testing.T) {
	res, ex := build(t, arch.Architecture1(), Options{Category: Confidentiality, Protection: Unencrypted})
	if res.HasProtVar {
		t.Fatal("unencrypted confidentiality should not add a protection variable")
	}
	violated, err := ex.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	can1, err := ex.LabelMask("exp_bus_CAN1")
	if err != nil {
		t.Fatal(err)
	}
	can2, err := ex.LabelMask("exp_bus_CAN2")
	if err != nil {
		t.Fatal(err)
	}
	states := vectors(ex)
	for i := range violated {
		if (can1[i] || can2[i]) && !violated[i] {
			t.Fatalf("state %s: route exploitable but not violated", res.Model.FormatState(states[i]))
		}
	}
}

// TestEndpointCompromiseBypassesCrypto: with AES, a state where the sender
// PA is exploited must be violated even with intact protection (Eq. 8) —
// the paper's "counter-intuitive" headline finding.
func TestEndpointCompromiseBypassesCrypto(t *testing.T) {
	res, ex := build(t, arch.Architecture1(), Options{Category: Confidentiality, Protection: AES128})
	violated, err := ex.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := ex.LabelMask("exp_" + arch.ParkAssist)
	if err != nil {
		t.Fatal(err)
	}
	states := vectors(ex)
	for i := range violated {
		if pa[i] && !violated[i] {
			t.Fatalf("state %s: PA exploited but message still confidential", res.Model.FormatState(states[i]))
		}
	}
	// And the converse: with intact protection and no endpoint exploited,
	// the message is secure.
	prot := res.ProtVar
	for i, st := range states {
		if violated[i] && st[prot.Index] == 1 {
			// must have an endpoint exploited
			ps, err := ex.LabelMask("exp_" + arch.PowerSteering)
			if err != nil {
				t.Fatal(err)
			}
			if !pa[i] && !ps[i] {
				t.Fatalf("state %s: violated with intact crypto and secure endpoints", res.Model.FormatState(states[i]))
			}
		}
	}
}

// TestProtectionBreakIsPermanent: Table 2 assigns no message patch rate, so
// prot=0 must be absorbing in the protection dimension.
func TestProtectionBreakIsPermanent(t *testing.T) {
	res, ex := build(t, arch.Architecture1(), Options{Category: Integrity, Protection: CMAC128})
	prot := res.ProtVar
	states := vectors(ex)
	for i, st := range states {
		if st[prot.Index] != 0 {
			continue
		}
		cols, _ := ex.Chain.Rates.Row(i)
		for _, j := range cols {
			if states[j][prot.Index] == 1 {
				t.Fatal("broken protection healed without a patch rate")
			}
		}
	}
}

// TestMessagePatchRateEnablesRepair: the Fig. 3 worked example patches the
// message protection weekly.
func TestMessagePatchRateEnablesRepair(t *testing.T) {
	res, ex := build(t, arch.Architecture1(), Options{
		Category: Integrity, Protection: CMAC128, MessagePatchRate: 52,
	})
	prot := res.ProtVar
	repaired := false
	states := vectors(ex)
	for i, st := range states {
		if st[prot.Index] != 0 {
			continue
		}
		cols, _ := ex.Chain.Rates.Row(i)
		for _, j := range cols {
			if states[j][prot.Index] == 1 {
				repaired = true
			}
		}
	}
	if !repaired {
		t.Fatal("no repair transition with MessagePatchRate set")
	}
}

func TestNMaxControlsStateSpace(t *testing.T) {
	_, ex1 := build(t, arch.Architecture1(), Options{NMax: 1, Category: Availability})
	_, ex2 := build(t, arch.Architecture1(), Options{NMax: 2, Category: Availability})
	_, ex3 := build(t, arch.Architecture1(), Options{NMax: 3, Category: Availability})
	if !(ex1.N() < ex2.N() && ex2.N() < ex3.N()) {
		t.Fatalf("state counts not increasing: %d, %d, %d", ex1.N(), ex2.N(), ex3.N())
	}
}

// TestLiteralPatchGuardChangesModel: the ablation flag must produce a
// different chain (patching disabled in some states).
func TestLiteralPatchGuardChangesModel(t *testing.T) {
	_, exDefault := build(t, arch.Architecture3(), Options{Category: Availability})
	_, exLiteral := build(t, arch.Architecture3(), Options{Category: Availability, LiteralPatchGuard: true})
	// Same state space, different transition structure: find a state where
	// default patches but literal cannot.
	if exDefault.N() != exLiteral.N() {
		// State spaces can legitimately differ (unreachable states); either
		// way the models differ, which is all this test asserts.
		return
	}
	diff := false
	for i := 0; i < exDefault.N(); i++ {
		a := exDefault.Chain.Exit[i]
		b := exLiteral.Chain.Exit[i]
		if a != b {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("LiteralPatchGuard produced an identical chain")
	}
}

func TestLinearPatchRates(t *testing.T) {
	res, ex := build(t, arch.Architecture1(), Options{Category: Availability, LinearPatchRates: true})
	// Find a state with x_3G_NET = 2 and check the patch transition rate is
	// 2·52.
	netVar := res.InterfaceVars["3G/NET"]
	states := vectors(ex)
	for i, st := range states {
		if st[netVar.Index] != 2 {
			continue
		}
		cols, vals := ex.Chain.Rates.Row(i)
		for k, j := range cols {
			to := states[j]
			if to[netVar.Index] == 1 && sameExcept(st, to, netVar.Index) {
				if vals[k] != 104 {
					t.Fatalf("linear patch rate = %v, want 104", vals[k])
				}
				return
			}
		}
	}
	t.Fatal("no x=2 patch transition found")
}

func sameExcept(a, b []int, idx int) bool {
	for i := range a {
		if i != idx && a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExportedModelRoundTrips: the generated model must survive PRISM export
// and re-parse with an identical state space (DESIGN.md §7).
func TestExportedModelRoundTrips(t *testing.T) {
	res, ex := build(t, arch.Architecture3(), Options{Category: Confidentiality, Protection: AES128})
	src := res.Model.ExportPRISM()
	re, _, err := prismlang.ParseModel(src, nil)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, src)
	}
	exRe, err := re.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != exRe.N() {
		t.Fatalf("state counts differ after round trip: %d vs %d", ex.N(), exRe.N())
	}
	if !strings.Contains(src, "label \"violated\"") {
		t.Fatal("violated label missing from export")
	}
}

func TestCategoryAndProtectionStrings(t *testing.T) {
	if Confidentiality.String() != "confidentiality" || Category(9).String() == "" {
		t.Fatal("Category.String broken")
	}
	if AES128.String() != "AES128" || Protection(9).String() == "" {
		t.Fatal("Protection.String broken")
	}
}

// withReliability decorates an architecture with failure/repair rates.
func withReliability(a *arch.Architecture) *arch.Architecture {
	for i := range a.ECUs {
		a.ECUs[i].FailureRate = 0.1 // once per decade
		a.ECUs[i].RepairRate = 52   // repaired within a week
	}
	return a
}

func TestReliabilityDisabledByDefault(t *testing.T) {
	res, _ := build(t, withReliability(arch.Architecture1()), Options{Category: Availability})
	if len(res.FailVars) != 0 {
		t.Fatalf("fail vars without IncludeReliability: %v", res.FailVars)
	}
}

func TestReliabilityAddsFailureState(t *testing.T) {
	res, ex := build(t, withReliability(arch.Architecture1()), Options{
		Category: Availability, IncludeReliability: true,
	})
	if len(res.FailVars) != 4 {
		t.Fatalf("fail vars = %d", len(res.FailVars))
	}
	// Failed endpoints violate availability even with no exploit anywhere.
	violated, err := ex.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	paFailed, err := ex.LabelMask("failed_" + arch.ParkAssist)
	if err != nil {
		t.Fatal(err)
	}
	states := vectors(ex)
	for i := range violated {
		if paFailed[i] && !violated[i] {
			t.Fatalf("state %s: sender failed but availability intact",
				res.Model.FormatState(states[i]))
		}
	}
}

// TestReliabilityFailureSilencesECU: while the telematics unit is failed,
// its interfaces cannot be exploited further and CAN1 is not exploitable
// through it.
func TestReliabilityFailureSilencesECU(t *testing.T) {
	res, ex := build(t, withReliability(arch.Architecture1()), Options{
		Category: Availability, IncludeReliability: true,
	})
	teleFailed := res.FailVars[arch.Telematics]
	can1, err := ex.LabelMask("exp_bus_CAN1")
	if err != nil {
		t.Fatal(err)
	}
	ecuMask, err := ex.LabelMask("exp_" + arch.Telematics)
	if err != nil {
		t.Fatal(err)
	}
	netVar := res.InterfaceVars["3G/NET"]
	states := vectors(ex)
	for i, st := range states {
		if st[teleFailed.Index] == 0 {
			continue
		}
		// Failed telematics: never counted as exploited.
		if ecuMask[i] {
			t.Fatalf("failed telematics counted exploited in %s", res.Model.FormatState(st))
		}
		// No exploit transition on its interfaces while failed.
		cols, _ := ex.Chain.Rates.Row(i)
		for _, j := range cols {
			if states[j][netVar.Index] > st[netVar.Index] {
				t.Fatalf("exploit of failed ECU in %s", res.Model.FormatState(st))
			}
		}
	}
	_ = can1
}

// TestReliabilityChangesAvailabilityOnly: confidentiality is unaffected by
// endpoint failures (the model differs, but failed states are not violated
// via the failure itself).
func TestReliabilityConfidentialityUnaffectedByFailureAlone(t *testing.T) {
	res, ex := build(t, withReliability(arch.Architecture1()), Options{
		Category: Confidentiality, Protection: AES128, IncludeReliability: true,
	})
	violated, err := ex.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	// A state where only the PA is failed (no exploits, protection intact)
	// must not violate confidentiality.
	states := vectors(ex)
	for i, st := range states {
		allZero := true
		for _, v := range res.InterfaceVars {
			if st[v.Index] != 0 {
				allZero = false
			}
		}
		if !allZero || st[res.ProtVar.Index] != 1 {
			continue
		}
		if violated[i] {
			t.Fatalf("confidentiality violated without exploit in %s", res.Model.FormatState(st))
		}
	}
}

func TestReliabilityIncreasesAvailabilityExposure(t *testing.T) {
	base, exBase := build(t, arch.Architecture1(), Options{Category: Availability})
	_, exRel := build(t, withReliability(arch.Architecture1()), Options{
		Category: Availability, IncludeReliability: true,
	})
	mb, err := exBase.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := exRel.LabelMask(LabelViolated)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := exBase.Chain.ExpectedTimeFractionContext(t.Context(), exBase.InitDistribution(), mb, 1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := exRel.Chain.ExpectedTimeFractionContext(t.Context(), exRel.InitDistribution(), mr, 1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if fr <= fb {
		t.Fatalf("reliability did not increase availability exposure: %v vs %v", fr, fb)
	}
	_ = base
}

func TestReliabilityValidation(t *testing.T) {
	a := arch.Architecture1()
	a.ECUs[0].FailureRate = 0.1 // no repair rate
	if err := a.Validate(); err == nil {
		t.Fatal("failure without repair accepted")
	}
	a.ECUs[0].FailureRate = -1
	a.ECUs[0].RepairRate = 1
	if err := a.Validate(); err == nil {
		t.Fatal("negative failure rate accepted")
	}
}

// vectors decodes every state of ex, in state order.
func vectors(ex *modular.Explored) [][]int {
	out := make([][]int, ex.N())
	for i := range out {
		out[i] = ex.State(i, nil)
	}
	return out
}
