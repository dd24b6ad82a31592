package core_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/transform"
)

// The complete pipeline of the paper on Architecture 1: exploitable time of
// the park-assist message within one year.
func Example() {
	analyzer := core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true}
	r, err := analyzer.AnalyzeContext(context.Background(), arch.Architecture1(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s / %s / %s\n", r.Architecture, r.Category, r.Protection)
	fmt.Printf("states: %d\n", r.States)
	fmt.Printf("exploitable time: %.2f%%\n", r.Percent())
	// Output:
	// Architecture 1 / availability / unencrypted
	// states: 729
	// exploitable time: 4.96%
}

// The smallest end-to-end use of the library: the headline metric for one
// security category of Architecture 1 at the paper's settings (nmax = 2
// exploits per interface, one-year horizon), and the same number through an
// explicit CSL reward property (Section 3.3).
func Example_quickstart() {
	ctx := context.Background()
	architecture := arch.Architecture1()
	analyzer := core.Analyzer{NMax: 2, Horizon: 1}

	result, err := analyzer.AnalyzeContext(ctx, architecture, arch.MessageM,
		transform.Confidentiality, transform.AES128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("architecture:      %s\n", result.Architecture)
	fmt.Printf("message:           %s (AES-128 encrypted)\n", result.Message)
	fmt.Printf("category:          %s\n", result.Category)
	fmt.Printf("CTMC size:         %d states, %d transitions\n", result.States, result.Transitions)
	fmt.Printf("exploitable time:  %.3f%% of one year\n", result.Percent())

	prop := `R{"violated_time"}=? [ C<=1 ]`
	res, err := analyzer.CheckPropertyContext(ctx, architecture, arch.MessageM,
		transform.Confidentiality, transform.AES128, prop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via CSL property:  %s = %.5f years\n", prop, res.Value)
	// Output:
	// architecture:      Architecture 1
	// message:           m (AES-128 encrypted)
	// category:          confidentiality
	// CTMC size:         1458 states, 12266 transitions
	// exploitable time:  3.032% of one year
	// via CSL property:  R{"violated_time"}=? [ C<=1 ] = 0.03032 years
}

// ExampleAnalyzer_MostProbableAttackPath recovers the paper's Figure-1
// narrative for the FlexRay architecture.
func ExampleAnalyzer_MostProbableAttackPath() {
	analyzer := core.Analyzer{NMax: 2, Horizon: 1}
	path, err := analyzer.MostProbableAttackPath(arch.Architecture3(), arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range path.Steps {
		fmt.Printf("%d. %s\n", i+1, s.Description)
	}
	// Output:
	// 1. exploit interface 3G_NET (now 1)
	// 2. exploit bus guardian of FR
}

// ExampleAnalyzer_AttackPaths recovers the paper's Figure-1 exploit
// narrative for each case-study architecture: the most probable attack
// sequences (over the embedded jump chain) from the secure initial state to
// a violated one, which single hardened component blocks them, and every
// component ranked by its exposure — the per-element analysis the paper
// proposes for OEM/supplier patch-rate negotiations.
func ExampleAnalyzer_AttackPaths() {
	analyzer := core.Analyzer{NMax: 2, Horizon: 1}
	for _, a := range arch.CaseStudy() {
		fmt.Printf("== %s ==\n", a.Name)

		paths, err := analyzer.AttackPaths(a, arch.MessageM,
			transform.Confidentiality, transform.AES128, 3)
		switch {
		case errors.Is(err, core.ErrNoAttackPath):
			fmt.Println("no attack path reaches a violated state")
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Println("top attack paths on confidentiality (AES-128 protected):")
			for rank, path := range paths {
				fmt.Printf("-- path #%d --\n%s", rank+1, path)
			}
		}

		fmt.Println("\nhardening analysis (which single fix blocks the attack?):")
		ccs, err := analyzer.CriticalComponents(a, arch.MessageM,
			transform.Confidentiality, transform.AES128)
		if err != nil {
			log.Fatal(err)
		}
		htbl := report.NewTable("hardened component", "attack blocked", "residual exposure")
		for _, c := range ccs {
			blocked := "no"
			if c.Blocks {
				blocked = "YES"
			}
			htbl.AddRow(c.Name, blocked, report.Percent(c.ResidualTimeFraction))
		}
		fmt.Print(htbl)

		comps, err := analyzer.AnalyzeComponents(a, arch.MessageM,
			transform.Confidentiality, transform.AES128)
		if err != nil {
			log.Fatal(err)
		}
		tbl := report.NewTable("component", "kind", "exploited time", "hit within 1y")
		for _, c := range comps {
			tbl.AddRow(c.Name, c.Kind,
				report.Percent(c.ExploitedTimeFraction),
				report.Percent(c.EverExploited))
		}
		fmt.Println("\ncomponent exposure ranking:")
		fmt.Print(tbl)
		fmt.Println()
	}
	// Output:
	// == Architecture 1 ==
	// top attack paths on confidentiality (AES-128 protected):
	// -- path #1 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. break protection of m                                   rate 1.2    p=0.020
	//     path probability (jump chain): 0.0196
	// -- path #2 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit interface PA_CAN1 (now 1)                       rate 1.2    p=0.020
	//     path probability (jump chain): 0.0196
	// -- path #3 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit interface GW_CAN1 (now 1)                       rate 1.2    p=0.020
	//  3. patch interface 3G_NET (now 0)                          rate 52     p=0.768
	//  4. exploit interface PA_CAN1 (now 1)                       rate 1.2    p=0.076
	//     path probability (jump chain): 0.00115
	//
	// hardening analysis (which single fix blocks the attack?):
	// hardened component  attack blocked  residual exposure
	// ------------------  --------------  -----------------
	// 3G                  YES             0%
	// GW                  no              2.54%
	// PA                  no              2.54%
	// PS                  no              2.9%
	//
	// component exposure ranking:
	// component  kind  exploited time  hit within 1y
	// ---------  ----  --------------  -------------
	// NET        bus   100.0%          100.0%
	// CAN1       bus   4.91%           85.0%
	// 3G         ecu   3.79%           85.0%
	// CAN2       bus   1.11%           4.53%
	// GW         ecu   1.05%           4.53%
	// PA         ecu   0.438%          5.02%
	// PS         ecu   0.202%          0.987%
	//
	// == Architecture 2 ==
	// top attack paths on confidentiality (AES-128 protected):
	// -- path #1 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit interface PA_CAN1 (now 1)                       rate 1.2    p=0.020
	//     path probability (jump chain): 0.02
	// -- path #2 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit interface GW_CAN1 (now 1)                       rate 1.2    p=0.020
	//  3. patch interface 3G_NET (now 0)                          rate 52     p=0.755
	//  4. exploit interface PA_CAN1 (now 1)                       rate 1.2    p=0.071
	//     path probability (jump chain): 0.00107
	// -- path #3 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit interface GW_CAN1 (now 1)                       rate 1.2    p=0.020
	//  3. patch interface 3G_NET (now 0)                          rate 52     p=0.755
	//  4. break protection of m                                   rate 1.2    p=0.071
	//     path probability (jump chain): 0.00107
	//
	// hardening analysis (which single fix blocks the attack?):
	// hardened component  attack blocked  residual exposure
	// ------------------  --------------  -----------------
	// 3G                  YES             0%
	// PA                  no              0.514%
	// GW                  no              0.573%
	// PS                  no              1.04%
	//
	// component exposure ranking:
	// component  kind  exploited time  hit within 1y
	// ---------  ----  --------------  -------------
	// NET        bus   100.0%          100.0%
	// CAN1       bus   5.01%           85.0%
	// 3G         ecu   3.8%            85.0%
	// CAN2       bus   1.59%           8.15%
	// GW         ecu   1.15%           4.9%
	// PA         ecu   0.556%          5.61%
	// PS         ecu   0.293%          1.42%
	//
	// == Architecture 3 ==
	// top attack paths on confidentiality (AES-128 protected):
	// -- path #1 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit bus guardian of FR                              rate 0.2    p=0.004
	//  3. exploit interface PA_FR (now 1)                         rate 1.2    p=0.018
	//     path probability (jump chain): 6.77e-05
	// -- path #2 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit bus guardian of FR                              rate 0.2    p=0.004
	//  3. break protection of m                                   rate 1.2    p=0.018
	//     path probability (jump chain): 6.77e-05
	// -- path #3 --
	//  1. exploit interface 3G_NET (now 1)                        rate 1.9    p=1.000
	//  2. exploit bus guardian of FR                              rate 0.2    p=0.004
	//  3. exploit interface GW_FR (now 1)                         rate 1.2    p=0.018
	//  4. patch interface 3G_NET (now 0)                          rate 52     p=0.723
	//  5. break protection of m                                   rate 1.2    p=0.060
	//     path probability (jump chain): 2.95e-06
	//
	// hardening analysis (which single fix blocks the attack?):
	// hardened component  attack blocked  residual exposure
	// ------------------  --------------  -----------------
	// 3G                  YES             0%
	// guardian:FR         YES             0%
	// GW                  no              0.0114%
	// PA                  no              0.0115%
	// PS                  no              0.013%
	//
	// component exposure ranking:
	// component  kind  exploited time  hit within 1y
	// ---------  ----  --------------  -------------
	// NET        bus   100.0%          100.0%
	// 3G         ecu   3.58%           85.0%
	// FR         bus   0.0208%         0.71%
	// CAN2       bus   4.91e-03%       0.0217%
	// GW         ecu   4.65e-03%       0.0217%
	// PA         ecu   1.86e-03%       0.0227%
	// PS         ecu   8.75e-04%       4.44e-03%
}

// ExampleAnalyzer_AnalyzeContext combines security and reliability, one of
// the extensions the paper's conclusion announces: random hardware failures
// of all ECUs are folded into the very same CTMC (failure interrupts the
// stream, silences the failed ECU's exploits and blocks patching).
func ExampleAnalyzer_AnalyzeContext() {
	ctx := context.Background()
	a := arch.Architecture1()
	// Quarterly failures for the ageing actuator, rarer ones elsewhere;
	// workshop repair within about two weeks.
	rel := a.Clone()
	for i := range rel.ECUs {
		rel.ECUs[i].FailureRate = 0.1
		rel.ECUs[i].RepairRate = 26
	}
	rel.ECU(arch.PowerSteering).FailureRate = 0.25

	plain := core.Analyzer{NMax: 2, SkipSteadyState: true}
	combined := core.Analyzer{NMax: 2, SkipSteadyState: true, IncludeReliability: true}
	rp, err := plain.AnalyzeContext(ctx, a, arch.MessageM, transform.Availability, transform.Unencrypted)
	if err != nil {
		log.Fatal(err)
	}
	rc, err := combined.AnalyzeContext(ctx, rel, arch.MessageM, transform.Availability, transform.Unencrypted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Combined security + reliability (availability of m, 1 year):")
	fmt.Printf("  security only:          %s  (%d states)\n", report.Percent(rp.TimeFraction), rp.States)
	fmt.Printf("  security + reliability: %s  (%d states)\n", report.Percent(rc.TimeFraction), rc.States)
	fmt.Printf("  hardware failures add %s of downtime-equivalent exposure.\n",
		report.Percent(rc.TimeFraction-rp.TimeFraction))
	// Output:
	// Combined security + reliability (availability of m, 1 year):
	//   security only:          4.96%  (729 states)
	//   security + reliability: 6.15%  (11664 states)
	//   hardware failures add 1.19% of downtime-equivalent exposure.
}

// ExampleAnalyzer_AnalyzeAllContext studies a scenario from the
// attack-surface literature the paper builds on (Checkoway et al., USENIX
// Security 2011): an aftermarket internet-connected OBD-II dongle on
// Architecture 1's CAN2 (models/obddongle.json). The dongle is weakly
// hardened consumer hardware (AC:L, single authentication) that bridges the
// internet onto the safety-critical bus, bypassing the gateway. Each
// architecture's Figure-5 grid is one AnalyzeAllContext call; the
// component ranking and the most probable attack show where the exposure
// comes from. The patch-rate sweep that prices a firmware-update SLA is a
// cmd/sweep run (see README).
func ExampleAnalyzer_AnalyzeAllContext() {
	ctx := context.Background()
	baseline := arch.Architecture1()
	dongled, err := arch.LoadFile("../../models/obddongle.json")
	if err != nil {
		log.Fatal(err)
	}
	analyzer := core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true}

	fmt.Println("Effect of an aftermarket OBD-II dongle on message m (1-year horizon):")
	rb, err := analyzer.AnalyzeAllContext(ctx, baseline, arch.MessageM)
	if err != nil {
		log.Fatal(err)
	}
	rd, err := analyzer.AnalyzeAllContext(ctx, dongled, arch.MessageM)
	if err != nil {
		log.Fatal(err)
	}
	tbl := report.NewTable("category", "protection", "baseline", "with dongle", "blow-up")
	for i := range rb {
		tbl.AddRow(rb[i].Category.String(), rb[i].Protection.String(),
			report.Percent(rb[i].TimeFraction),
			report.Percent(rd[i].TimeFraction),
			fmt.Sprintf("%.1fx", rd[i].TimeFraction/rb[i].TimeFraction))
	}
	fmt.Print(tbl)

	fmt.Println("\nWhere the exposure comes from (availability model):")
	comps, err := analyzer.AnalyzeComponents(dongled, arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		log.Fatal(err)
	}
	ctbl := report.NewTable("component", "kind", "exploited time")
	for _, c := range comps {
		ctbl.AddRow(c.Name, c.Kind, report.Percent(c.ExploitedTimeFraction))
	}
	fmt.Print(ctbl)

	fmt.Println("\nMost probable attack with the dongle installed:")
	path, err := analyzer.MostProbableAttackPath(dongled, arch.MessageM,
		transform.Availability, transform.Unencrypted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(path)
	// Output:
	// Effect of an aftermarket OBD-II dongle on message m (1-year horizon):
	// category         protection   baseline  with dongle  blow-up
	// ---------------  -----------  --------  -----------  -------
	// confidentiality  unencrypted  4.96%     82.7%        16.7x
	// confidentiality  CMAC128      4.96%     82.7%        16.7x
	// confidentiality  AES128       3.03%     41.3%        13.6x
	// integrity        unencrypted  4.96%     82.7%        16.7x
	// integrity        CMAC128      3.03%     41.3%        13.6x
	// integrity        AES128       3.03%     41.3%        13.6x
	// availability     unencrypted  4.96%     82.7%        16.7x
	// availability     CMAC128      4.96%     82.7%        16.7x
	// availability     AES128       4.96%     82.7%        16.7x
	//
	// Where the exposure comes from (availability model):
	// component  kind  exploited time
	// ---------  ----  --------------
	// NET        bus   100.0%
	// CAN2       bus   82.1%
	// OBD        ecu   81.6%
	// CAN1       bus   21.2%
	// GW         ecu   17.8%
	// PS         ecu   16.1%
	// 3G         ecu   4.92%
	// PA         ecu   1.83%
	//
	// Most probable attack with the dongle installed:
	//  1. exploit interface OBD_NET (now 1)                       rate 6.65   p=0.778
	//     path probability (jump chain): 0.778
}

// ExampleAnalyzer_SweepContext reproduces one point of the paper's Figure 6.
func ExampleAnalyzer_SweepContext() {
	analyzer := core.Analyzer{NMax: 2, Horizon: 1}
	pts, err := analyzer.SweepContext(context.Background(), arch.Architecture1(), arch.MessageM,
		transform.Confidentiality, transform.Unencrypted,
		core.SweepPatchRate, arch.Telematics, "", []float64{5.2, 52, 520})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("ϕ=%5.1f -> %.2f%%\n", p.Rate, 100*p.TimeFraction)
	}
	// Output:
	// ϕ=  5.2 -> 33.80%
	// ϕ= 52.0 -> 4.96%
	// ϕ=520.0 -> 0.51%
}
