// Command prismc is the targeted probabilistic model checker the paper's
// future-work section calls for: it parses a CTMC model in the PRISM
// language subset, explores the state space natively (no instantaneous-
// transition blow-up) and checks CSL properties.
//
// Usage:
//
//	prismc model.pm -prop 'R{"violated_time"}=? [ C<=1 ]'
//	prismc model.pm -prop 'P=? [ F<=1 "violated" ]' -prop 'S=? [ "violated" ]'
//	prismc model.pm -stats            # state space statistics only
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/csl"
	"repro/internal/modular"
	"repro/internal/prismlang"
)

// propList accumulates repeated -prop flags.
type propList []string

func (p *propList) String() string { return fmt.Sprint(*p) }

// Set appends one property.
func (p *propList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prismc:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prismc", flag.ContinueOnError)
	var props propList
	fs.Var(&props, "prop", "CSL property to check (repeatable)")
	var constDefs propList
	fs.Var(&constDefs, "const", "define an undefined model constant, name=value (repeatable)")
	stats := fs.Bool("stats", false, "print state-space statistics")
	maxStates := fs.Int("max-states", 0, "state-space limit (0 = default)")
	accuracy := fs.Float64("accuracy", 0, "uniformisation truncation accuracy (0 = default)")
	dot := fs.String("dot", "", "emit the explored CTMC as GraphViz, highlighting the given label (use '-' for none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: prismc <model.pm> [-prop '...'] [-stats]")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	overrides := make(map[string]string)
	for _, c := range constDefs {
		name, value, ok := strings.Cut(c, "=")
		if !ok {
			return fmt.Errorf("-const wants name=value, got %q", c)
		}
		overrides[strings.TrimSpace(name)] = strings.TrimSpace(value)
	}
	model, consts, err := prismlang.ParseModel(string(data), overrides)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", fs.Arg(0), err)
	}
	start := time.Now()
	ex, err := model.ExploreContext(ctx, modular.ExploreOpts{MaxStates: *maxStates})
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	if *dot != "" {
		label := *dot
		if label == "-" {
			label = ""
		}
		src, err := ex.ExportDOT(label)
		if err != nil {
			return err
		}
		fmt.Fprint(out, src)
		return nil
	}
	if *stats || len(props) == 0 {
		fmt.Fprintf(out, "states:      %d\n", ex.N())
		fmt.Fprintf(out, "transitions: %d\n", ex.Chain.Rates.NNZ())
		fmt.Fprintf(out, "variables:   %d\n", len(model.Vars))
		fmt.Fprintf(out, "labels:      %d\n", len(model.Labels))
		fmt.Fprintf(out, "build time:  %s\n", buildTime.Round(time.Microsecond))
	}
	env := csl.Environment{Model: model, Consts: consts}
	checker := csl.NewChecker(ex)
	checker.Accuracy = *accuracy
	for _, p := range props {
		prop, err := csl.Parse(p, env)
		if err != nil {
			return fmt.Errorf("property %q: %w", p, err)
		}
		start := time.Now()
		res, err := checker.CheckContext(ctx, prop)
		if err != nil {
			return fmt.Errorf("checking %q: %w", p, err)
		}
		fmt.Fprintf(out, "%s = %s  (%s)\n", p, res, time.Since(start).Round(time.Microsecond))
	}
	return nil
}
