// Command secattack analyses attack-tree threat models: compile a tree to a
// CTMC, solve the top-event probability and mean time to attack through the
// analysis engine, rank countermeasure selections on a cost-vs-risk Pareto
// front, or generate and solve a whole seeded fleet of vehicle trees. With
// -server the requests go through a running secserved instead of the local
// engine, exercising the same cache and shard tiers batch clients use.
//
// Usage:
//
//	secattack -tree models/attacktree_infotainment.json
//	secattack -tree models/attacktree_infotainment.json -countermeasures firewall
//	secattack -tree models/attacktree_infotainment.json -rank
//	secattack -tree models/attacktree_infotainment.json -pm
//	secattack -fleet 256 -seed 7
//	secattack -tree models/attacktree_infotainment.json -server http://localhost:8600
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/attacktree"
	"repro/internal/attacktree/fleetgen"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "secattack:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("secattack", flag.ContinueOnError)
	treeFlag := fs.String("tree", "", "attack-tree JSON file, or a stored model name under -models/-server")
	horizon := fs.Float64("horizon", 1, "analysis horizon in years")
	cmsFlag := fs.String("countermeasures", "", "comma-separated countermeasures to apply")
	rank := fs.Bool("rank", false, "enumerate countermeasure selections and print the cost-vs-risk Pareto front")
	pm := fs.Bool("pm", false, "print the compiled PRISM model instead of solving")
	fleet := fs.Int("fleet", 0, "generate and solve a fleet of this many random vehicle trees")
	seed := fs.Int64("seed", 1, "fleet generator seed")
	serverFlag := fs.String("server", "", "secserved base URL; empty solves with the in-process engine")
	modelsDir := fs.String("models", "models", "stored-model directory for the in-process engine")
	workers := fs.Int("workers", 0, "parallel solves for -rank and -fleet (0 = one per CPU)")
	asJSON := fs.Bool("json", false, "emit results as JSON instead of text")
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
		if ferr := ocli.Finish(orun, "secattack", args); ferr != nil && err == nil {
			err = ferr
		}
	}()

	var cms []string
	if *cmsFlag != "" {
		for _, name := range strings.Split(*cmsFlag, ",") {
			cms = append(cms, strings.TrimSpace(name))
		}
	}

	sv := newSolver(*serverFlag, *modelsDir, *workers)
	if *fleet > 0 {
		return runFleet(ctx, sv, *fleet, *seed, *horizon, *asJSON, out)
	}
	if *treeFlag == "" {
		return fmt.Errorf("-tree is required (or use -fleet)")
	}
	if *pm {
		return printPRISM(*treeFlag, cms, out)
	}
	if *rank {
		return runRank(ctx, sv, *treeFlag, cms, *horizon, *asJSON, out)
	}

	req, err := treeRequest(*treeFlag, cms, *horizon)
	if err != nil {
		return err
	}
	tr, err := sv.solve(ctx, req)
	if err != nil {
		return err
	}
	return writeResult(out, tr, *asJSON)
}

// treeRequest builds the analysis request for a -tree argument: an existing
// file is sent inline, anything else is passed through as a stored model
// name for the engine or server to resolve.
func treeRequest(spec string, cms []string, horizon float64) (*service.AnalysisRequest, error) {
	req := &service.AnalysisRequest{
		Kind:            service.KindAttackTree,
		Horizon:         horizon,
		Countermeasures: cms,
	}
	data, err := os.ReadFile(spec)
	switch {
	case err == nil:
		// Parse eagerly so a malformed file fails with the tree error, not a
		// generic request rejection.
		if _, perr := attacktree.Parse(data); perr != nil {
			return nil, perr
		}
		req.Inline = json.RawMessage(data)
	case os.IsNotExist(err) && !strings.ContainsAny(spec, "/\\"):
		req.Architecture = spec
	default:
		return nil, err
	}
	return req, nil
}

func printPRISM(path string, cms []string, out io.Writer) error {
	t, err := attacktree.LoadFile(path)
	if err != nil {
		return err
	}
	c, err := attacktree.Compile(t, attacktree.CompileOptions{Applied: cms})
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, c.Model.ExportPRISM())
	return err
}

// runRank enumerates every countermeasure subset of the tree, solves each
// through the engine (identical model fragments collapse onto the caches),
// and prints the non-dominated cost-vs-risk selections.
func runRank(ctx context.Context, sv *solver, path string, base []string, horizon float64, asJSON bool, out io.Writer) error {
	t, err := attacktree.LoadFile(path)
	if err != nil {
		return err
	}
	all := t.Countermeasures()
	if len(all) > 10 {
		return fmt.Errorf("tree has %d countermeasures; -rank enumerates 2^n selections and caps n at 10", len(all))
	}
	if _, err := t.NormalizeApplied(base); err != nil {
		return err
	}
	forced := make(map[string]bool)
	for _, name := range base {
		forced[name] = true
	}
	var optional []string
	for _, cm := range all {
		if !forced[cm.Name] {
			optional = append(optional, cm.Name)
		}
	}

	inline, err := t.CanonicalJSON()
	if err != nil {
		return err
	}
	var reqs []*service.AnalysisRequest
	var labels []string
	for mask := 0; mask < 1<<len(optional); mask++ {
		sel := append([]string(nil), base...)
		for i, name := range optional {
			if mask&(1<<i) != 0 {
				sel = append(sel, name)
			}
		}
		sort.Strings(sel)
		label := "none"
		if len(sel) > 0 {
			label = strings.Join(sel, "+")
		}
		labels = append(labels, label)
		reqs = append(reqs, &service.AnalysisRequest{
			Kind:            service.KindAttackTree,
			Inline:          json.RawMessage(inline),
			Horizon:         horizon,
			Countermeasures: sel,
		})
	}

	results, err := sv.solveAll(ctx, reqs)
	if err != nil {
		return err
	}
	objectives := make([][]float64, len(results))
	for i, tr := range results {
		objectives[i] = []float64{tr.Cost, tr.TopEventProbability}
	}
	front := &report.Front{Objectives: []string{"cost", "p_top"}}
	for _, i := range explore.NonDominated(objectives) {
		front.Points = append(front.Points, report.FrontPoint{
			Label:  labels[i],
			Values: objectives[i],
		})
	}
	if asJSON {
		if err := front.WriteJSON(out); err != nil {
			return err
		}
	} else if _, err := front.Table().WriteTo(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "tree=%s horizon=%g selections=%d front=%d\n",
		t.Name, horizon, len(results), len(front.Points))
	return nil
}

// runFleet generates a seeded fleet and solves every vehicle, reporting
// aggregate risk — the heavy-traffic batch shape BenchmarkAttackTreeFleet
// measures.
func runFleet(ctx context.Context, sv *solver, count int, seed int64, horizon float64, asJSON bool, out io.Writer) error {
	reqs, err := fleetgen.Requests(fleetgen.Spec{Seed: seed, Count: count}, horizon)
	if err != nil {
		return err
	}
	results, err := sv.solveAll(ctx, reqs)
	if err != nil {
		return err
	}
	var sum, worst float64
	worstTree := ""
	for _, tr := range results {
		sum += tr.TopEventProbability
		if tr.TopEventProbability >= worst {
			worst = tr.TopEventProbability
			worstTree = tr.Tree
		}
	}
	mean := sum / float64(len(results))
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"fleet":      count,
			"seed":       seed,
			"horizon":    horizon,
			"mean_p_top": mean,
			"max_p_top":  worst,
			"worst_tree": worstTree,
		})
	}
	fmt.Fprintf(out, "fleet=%d seed=%d horizon=%g mean-p-top=%.4g max-p-top=%.4g worst=%s\n",
		count, seed, horizon, mean, worst, worstTree)
	return nil
}

func writeResult(out io.Writer, tr *service.TreeResult, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(tr)
	}
	fmt.Fprintf(out, "tree=%s states=%d transitions=%d build=%.3fs check=%.3fs\n",
		tr.Tree, tr.States, tr.Transitions, tr.BuildSeconds, tr.CheckSeconds)
	fmt.Fprintf(out, "P(top event within %gy) = %.6g\n", tr.Horizon, tr.TopEventProbability)
	if tr.MTTAYears != nil {
		fmt.Fprintf(out, "MTTA = %.6g years\n", *tr.MTTAYears)
	} else {
		fmt.Fprintln(out, "MTTA = unreachable")
	}
	if len(tr.Countermeasures) > 0 {
		fmt.Fprintf(out, "countermeasures: %s (cost %g)\n",
			strings.Join(tr.Countermeasures, ", "), tr.Cost)
	}
	return nil
}

// solver dispatches requests to the in-process engine or, with -server, to a
// running secserved over the job API. Both paths return the same TreeResult.
type solver struct {
	engine  *service.Engine
	client  *service.Client
	workers int
}

func newSolver(server, modelsDir string, workers int) *solver {
	sv := &solver{workers: workers}
	if server != "" {
		sv.client = service.NewClient(server)
	} else {
		sv.engine = service.NewEngine(service.EngineOptions{ModelsDir: modelsDir})
	}
	return sv
}

func (s *solver) solve(ctx context.Context, req *service.AnalysisRequest) (*service.TreeResult, error) {
	if s.client != nil {
		r := *req
		r.WaitSeconds = 60
		view, err := s.client.Analyze(ctx, &r)
		if err != nil {
			return nil, err
		}
		if view.Tree == nil {
			return nil, fmt.Errorf("job %s returned no tree result", view.ID)
		}
		return view.Tree, nil
	}
	out, _, err := s.engine.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	if out.Tree == nil {
		return nil, fmt.Errorf("engine returned no tree result")
	}
	return out.Tree, nil
}

// solveAll runs many requests, preserving order. The local path uses the
// engine's batch worker pool; the server path fans out over a bounded pool
// of client calls so a fleet does not serialise on poll latency.
func (s *solver) solveAll(ctx context.Context, reqs []*service.AnalysisRequest) ([]*service.TreeResult, error) {
	results := make([]*service.TreeResult, len(reqs))
	if s.engine != nil {
		for i, item := range s.engine.RunBatch(ctx, reqs, s.workers) {
			if item.Err != nil {
				return nil, fmt.Errorf("request %d: %w", i, item.Err)
			}
			if item.Outcome.Tree == nil {
				return nil, fmt.Errorf("request %d: no tree result", i)
			}
			results[i] = item.Outcome.Tree
		}
		return results, nil
	}
	workers := s.workers
	if workers <= 0 {
		workers = 8
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	errs := make([]error, len(reqs))
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				results[i], errs[i] = s.solve(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return results, nil
}
