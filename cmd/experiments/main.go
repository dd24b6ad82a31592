// Command experiments regenerates every table and figure of the paper's
// evaluation in one run, printing the same rows/series the paper reports
// (plus the ablations DESIGN.md documents). This is the harness behind
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments                # everything
//	experiments -only fig5     # one experiment: eq15|table2|fig5|fig6|scalability|ablations
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/csl"
	"repro/internal/cvss"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/prismlang"
	"repro/internal/report"
	"repro/internal/transform"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment: eq15|table2|fig5|fig6|scalability|ablations")
	var ocli obs.CLI
	ocli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	orun, err := ocli.Start()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := ocli.Finish(orun, "experiments", args); ferr != nil && err == nil {
			err = ferr
		}
	}()
	all := map[string]func(context.Context, io.Writer) error{
		"eq15":        eq15,
		"table2":      table2,
		"fig5":        fig5,
		"fig6":        fig6,
		"scalability": scalability,
		"ablations":   ablations,
	}
	order := []string{"eq15", "table2", "fig5", "fig6", "scalability", "ablations"}
	if *only != "" {
		f, ok := all[*only]
		if !ok {
			return fmt.Errorf("unknown experiment %q", *only)
		}
		return f(ctx, out)
	}
	for _, name := range order {
		if err := all[name](ctx, out); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// eq15 regenerates the worked steady-state example via the PRISM front end.
func eq15(ctx context.Context, out io.Writer) error {
	fmt.Fprintln(out, "## Worked example (Eqs. 13-15)")
	src, err := os.ReadFile("models/paper_fig3.pm")
	if err != nil {
		return err
	}
	model, consts, err := prismlang.ParseModel(string(src), nil)
	if err != nil {
		return err
	}
	ex, err := model.ExploreContext(ctx, modular.ExploreOpts{})
	if err != nil {
		return err
	}
	checker := csl.NewChecker(ex)
	env := csl.Environment{Model: model, Consts: consts}
	for _, p := range []string{`S=? [ "exploited" ]`, `R{"exploited_time"}=? [ C<=1 ]`, `P=? [ F<=1 "exploited" ]`} {
		prop, err := csl.Parse(p, env)
		if err != nil {
			return err
		}
		res, err := checker.CheckContext(ctx, prop)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-38s = %.6g\n", p, res.Value)
	}
	fmt.Fprintln(out, "  paper Eq. 15: P[s2] = 0.000699")
	return nil
}

// table2 regenerates the component assessment.
func table2(ctx context.Context, out io.Writer) error {
	_ = ctx // purely arithmetic, kept uniform with the other experiments
	fmt.Fprintln(out, "## Table 2 — component assessment")
	tbl := report.NewTable("vector", "sigma", "eta (1/a)", "paper")
	for _, c := range []struct {
		vec   string
		paper string
	}{
		{"AV:A/AC:H/Au:S", "1.2"},
		{"AV:A/AC:L/Au:S", "3.8"},
		{"AV:N/AC:H/Au:M", "1.9"},
		{"AV:L/AC:H/Au:S", "0.2"},
	} {
		v, err := cvss.Parse(c.vec)
		if err != nil {
			return err
		}
		tbl.AddRow(c.vec, fmt.Sprintf("%.4g", v.Score()), fmt.Sprintf("%.4g", v.Rate()), c.paper)
	}
	_, err := tbl.WriteTo(out)
	if err != nil {
		return err
	}
	ptbl := report.NewTable("ECU", "ASIL", "phi (1/a)")
	a := arch.Architecture1()
	for i := range a.ECUs {
		e := &a.ECUs[i]
		r, err := e.EffectivePatchRate()
		if err != nil {
			return err
		}
		ptbl.AddRow(e.Name, e.ASIL.String(), report.Rate(r))
	}
	_, err = ptbl.WriteTo(out)
	return err
}

// fig5 regenerates the architecture comparison.
func fig5(ctx context.Context, out io.Writer) error {
	fmt.Fprintln(out, "## Figure 5 — exploitable time of m within 1 year")
	an := core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true}
	results, err := an.CompareContext(ctx, arch.CaseStudy(), arch.MessageM)
	if err != nil {
		return err
	}
	tbl := report.NewTable("architecture", "category", "protection", "measured", "states")
	for _, r := range results {
		tbl.AddRow(r.Architecture, r.Category.String(), r.Protection.String(),
			report.Percent(r.TimeFraction), fmt.Sprintf("%d", r.States))
	}
	_, err = tbl.WriteTo(out)
	return err
}

// fig6 regenerates both parameter explorations.
func fig6(ctx context.Context, out io.Writer) error {
	fmt.Fprintln(out, "## Figure 6 — parameter exploration (Architecture 1)")
	an := core.Analyzer{NMax: 2, Horizon: 1}
	rates := core.LogSpace(0.1, 8760, 13)
	sweeps := []struct {
		title string
		param core.SweepParam
		bus   string
	}{
		{"(a) 3G patching rate", core.SweepPatchRate, ""},
		{"(b) 3G exploitation rate", core.SweepExploitRate, arch.BusInternet},
	}
	for _, s := range sweeps {
		pts, err := an.SweepContext(ctx, arch.Architecture1(), arch.MessageM,
			transform.Confidentiality, transform.Unencrypted,
			s.param, arch.Telematics, s.bus, rates)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s.title)
		tbl := report.NewTable("rate (1/a)", "exploitable time")
		for _, p := range pts {
			tbl.AddRow(fmt.Sprintf("%.4g", p.Rate), report.Percent(p.TimeFraction))
		}
		if _, err := tbl.WriteTo(out); err != nil {
			return err
		}
		cross := core.ThresholdCrossing(pts, 0.005)
		if !math.IsNaN(cross) {
			fmt.Fprintf(out, "0.5%% crossing at %.3g per year\n", cross)
		}
	}
	return nil
}

// scalability regenerates the Section-4.3 growth trends.
func scalability(ctx context.Context, out io.Writer) error {
	fmt.Fprintln(out, "## Scalability (Section 4.3)")
	tbl := report.NewTable("workload", "states", "transitions", "wall time")
	for _, nmax := range []int{1, 2, 3} {
		states, nnz, dur, err := exploreSize(ctx, arch.Architecture1(), nmax)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("Architecture 1, nmax %d", nmax),
			fmt.Sprintf("%d", states), fmt.Sprintf("%d", nnz), dur.String())
	}
	for _, n := range []int{4, 6, 8} {
		a, err := arch.Synthetic(arch.SyntheticSpec{ECUs: n, Buses: 2})
		if err != nil {
			return err
		}
		states, nnz, dur, err := exploreSize(ctx, a, 2)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("synthetic %d ECUs / 2 buses", n),
			fmt.Sprintf("%d", states), fmt.Sprintf("%d", nnz), dur.String())
	}
	_, err := tbl.WriteTo(out)
	return err
}

func exploreSize(ctx context.Context, a *arch.Architecture, nmax int) (states, transitions int, dur time.Duration, err error) {
	start := time.Now()
	res, err := transform.Build(a, arch.MessageM, transform.Options{
		NMax: nmax, Category: transform.Availability,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	ex, err := res.Model.ExploreContext(ctx, modular.ExploreOpts{})
	if err != nil {
		return 0, 0, 0, err
	}
	mask, err := ex.LabelMask(transform.LabelViolated)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := ex.Chain.ExpectedTimeFractionContext(ctx, ex.InitDistribution(), mask, 1, 0); err != nil {
		return 0, 0, 0, err
	}
	return ex.N(), ex.Chain.Rates.NNZ(), time.Since(start).Round(time.Millisecond), nil
}

// ablations regenerates the design-decision measurements.
func ablations(ctx context.Context, out io.Writer) error {
	fmt.Fprintln(out, "## Ablations (DESIGN.md §4)")
	tbl := report.NewTable("ablation", "setting", "exploitable time", "states")
	runOne := func(name, setting string, an core.Analyzer, a *arch.Architecture, cat transform.Category, prot transform.Protection) error {
		r, err := an.AnalyzeContext(ctx, a, arch.MessageM, cat, prot)
		if err != nil {
			return err
		}
		states := r.States
		if r.LumpedStates > 0 {
			states = r.LumpedStates
		}
		tbl.AddRow(name, setting, report.Percent(r.TimeFraction), fmt.Sprintf("%d", states))
		return nil
	}
	base := core.Analyzer{NMax: 2, SkipSteadyState: true}
	lg := base
	lg.LiteralPatchGuard = true
	lin := base
	lin.LinearPatchRates = true
	lump := base
	lump.UseLumping = true
	if err := runOne("patch guard", "default", base, arch.Architecture3(), transform.Availability, transform.Unencrypted); err != nil {
		return err
	}
	if err := runOne("patch guard", "literal Eq. 2", lg, arch.Architecture3(), transform.Availability, transform.Unencrypted); err != nil {
		return err
	}
	if err := runOne("patch rates", "constant", base, arch.Architecture1(), transform.Availability, transform.Unencrypted); err != nil {
		return err
	}
	if err := runOne("patch rates", "linear in exploits", lin, arch.Architecture1(), transform.Availability, transform.Unencrypted); err != nil {
		return err
	}
	if err := runOne("lumping", "off", base, arch.Architecture2(), transform.Confidentiality, transform.AES128); err != nil {
		return err
	}
	if err := runOne("lumping", "on (quotient)", lump, arch.Architecture2(), transform.Confidentiality, transform.AES128); err != nil {
		return err
	}
	_, err := tbl.WriteTo(out)
	return err
}
