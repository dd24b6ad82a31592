// Command archgen generates synthetic automotive architectures for
// scalability studies (paper Section 4.3): families with growing ECU and
// bus counts whose state spaces grow exponentially under the model
// transformation.
//
// Usage:
//
//	archgen -ecus 8 -buses 3 > big.json
//	archgen -ecus 6 -buses 2 -flexray -o arch.json
//	archgen -ecus 8 -buses 3 -stats    # also report the model size
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/arch"
	"repro/internal/modular"
	"repro/internal/transform"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "archgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer, errOut io.Writer) error {
	fs := flag.NewFlagSet("archgen", flag.ContinueOnError)
	ecus := fs.Int("ecus", 5, "number of ECUs (≥ 3)")
	buses := fs.Int("buses", 2, "number of internal buses (≥ 1)")
	flexray := fs.Bool("flexray", false, "use a FlexRay backbone")
	outFile := fs.String("o", "", "output file (default stdout)")
	stats := fs.Bool("stats", false, "also print the explored model size for nmax=2")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := arch.Synthetic(arch.SyntheticSpec{
		ECUs: *ecus, Buses: *buses, FlexRayBackbone: *flexray,
	})
	if err != nil {
		return err
	}
	data, err := a.ToJSON()
	if err != nil {
		return err
	}
	if *outFile == "" {
		fmt.Fprintln(out, string(data))
	} else if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if *stats {
		res, err := transform.Build(a, arch.MessageM, transform.Options{Category: transform.Availability})
		if err != nil {
			return err
		}
		ex, err := res.Model.ExploreContext(ctx, modular.ExploreOpts{})
		if err != nil {
			return err
		}
		fmt.Fprintf(errOut, "states: %d, transitions: %d\n", ex.N(), ex.Chain.Rates.NNZ())
	}
	return nil
}
