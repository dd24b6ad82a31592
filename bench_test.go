// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 4), plus ablations for the design decisions recorded
// in DESIGN.md §4. Headline metrics are attached to the benchmark output
// via ReportMetric (pct = exploitable-time percentage, states = CTMC size),
// so `go test -bench=. -benchmem` regenerates the numbers EXPERIMENTS.md
// records.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"testing"

	"repro/internal/arch"
	"repro/internal/attacktree/fleetgen"
	"repro/internal/core"
	"repro/internal/csl"
	"repro/internal/ctmc"
	"repro/internal/cvss"
	"repro/internal/foxglynn"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/prismlang"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transform"
)

// paperEq15Chain builds the worked example of Section 3.3.
func paperEq15Chain(b *testing.B) *ctmc.Chain {
	b.Helper()
	bd := ctmc.NewBuilder(3)
	bd.Add(0, 1, 2)
	bd.Add(1, 0, 52)
	bd.Add(1, 2, 2)
	bd.Add(2, 1, 52)
	bd.Add(2, 0, 52)
	c, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkEq15SteadyState regenerates the stationary distribution of the
// paper's Eqs. (13)–(15).
func BenchmarkEq15SteadyState(b *testing.B) {
	c := paperEq15Chain(b)
	var pi2 float64
	for i := 0; i < b.N; i++ {
		p, err := c.SteadyStateProbabilityContext(b.Context(), []float64{1, 0, 0}, []bool{false, false, true})
		if err != nil {
			b.Fatal(err)
		}
		pi2 = p
	}
	b.ReportMetric(100*pi2, "pct_s2") // paper: 0.0699 %
}

// BenchmarkTable1CVSS regenerates the exploitability-score derivation of
// Table 1 / Section 3.2 (σ = 3.15, η = 1.85 for the 3G interface).
func BenchmarkTable1CVSS(b *testing.B) {
	var eta float64
	for i := 0; i < b.N; i++ {
		v, err := cvss.Parse("AV:N/AC:H/Au:M")
		if err != nil {
			b.Fatal(err)
		}
		eta = v.Rate()
	}
	b.ReportMetric(eta, "eta_3G") // paper: 1.85
}

// BenchmarkTable2Rates regenerates the full component assessment of
// Table 2 (all case-study CVSS vectors and ASIL patch rates).
func BenchmarkTable2Rates(b *testing.B) {
	vectors := []string{
		"AV:A/AC:H/Au:S", "AV:A/AC:L/Au:S", "AV:N/AC:H/Au:M", "AV:L/AC:H/Au:S",
	}
	a := arch.Architecture1()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum = 0
		for _, s := range vectors {
			v, err := cvss.Parse(s)
			if err != nil {
				b.Fatal(err)
			}
			sum += v.Rate()
		}
		for j := range a.ECUs {
			r, err := a.ECUs[j].EffectivePatchRate()
			if err != nil {
				b.Fatal(err)
			}
			sum += r
		}
	}
	b.ReportMetric(sum, "rate_sum")
}

// BenchmarkFig5 regenerates the Figure-5 grid: per architecture, category
// and protection, the exploitable-time percentage of message m within one
// year (nmax = 2).
func BenchmarkFig5(b *testing.B) {
	an := core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true}
	for ai, a := range arch.CaseStudy() {
		for _, cat := range core.Categories {
			for _, prot := range core.Protections {
				name := fmt.Sprintf("arch%d/%s/%s", ai+1, cat, prot)
				b.Run(name, func(b *testing.B) {
					var r *core.Result
					var err error
					for i := 0; i < b.N; i++ {
						r, err = an.AnalyzeContext(b.Context(), a, arch.MessageM, cat, prot)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(r.Percent(), "pct")
					b.ReportMetric(float64(r.States), "states")
				})
			}
		}
	}
}

// BenchmarkFig5Grid runs the whole Figure-5 grid per op (CompareContext over the
// three case-study architectures, nmax 2, with steady state) under a
// collector, and reports the pipeline work per op taken from its spans:
// explored states, cumulative-reward (uniformisation) passes and
// steady-state solves. Cells that share a chain share that work. stage_ms/op
// is the summed explore, reward and steady-state span time per op; divided
// by ns/op it shows how far the stages overlap (a chain's reward pass runs
// beside its steady-state solve, and an architecture's chains run on
// GOMAXPROCS workers).
func BenchmarkFig5Grid(b *testing.B) {
	col := obs.NewCollector()
	ctx, root := obs.NewTracer(col, false).StartSpan(context.Background(), "bench.fig5_grid")
	an := core.Analyzer{NMax: 2, Horizon: 1}
	archs := arch.CaseStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.CompareContext(ctx, archs, arch.MessageM); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	root.End()
	phases := map[string]obs.PhaseStat{}
	for _, ph := range col.Manifest("", nil).Phases {
		phases[ph.Name] = ph
	}
	n := float64(b.N)
	b.ReportMetric(phases["modular.explore"].Attrs["states"].Sum/n, "states/op")
	b.ReportMetric(float64(phases["ctmc.cumulative_reward"].Count)/n, "reward_passes/op")
	b.ReportMetric(float64(phases["ctmc.steadystate"].Count)/n, "steady_solves/op")
	stages := phases["modular.explore"].Seconds + phases["ctmc.cumulative_reward"].Seconds + phases["ctmc.steadystate"].Seconds
	b.ReportMetric(1e3*stages/n, "stage_ms/op")
}

// BenchmarkFig6aPatchSweep regenerates Figure 6 (a): exploitability of m in
// Architecture 1 as the 3G patching rate sweeps 0.1 … 8760 per year.
func BenchmarkFig6aPatchSweep(b *testing.B) {
	an := core.Analyzer{NMax: 2, Horizon: 1}
	rates := core.LogSpace(0.1, 8760, 9)
	var pts []core.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = an.SweepContext(b.Context(), arch.Architecture1(), arch.MessageM,
			transform.Confidentiality, transform.Unencrypted,
			core.SweepPatchRate, arch.Telematics, "", rates)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*pts[0].TimeFraction, "pct_lo")
	b.ReportMetric(100*pts[len(pts)-1].TimeFraction, "pct_hi")
}

// BenchmarkFig6bExploitSweep regenerates Figure 6 (b): exploitability of m
// as the 3G exploitation rate sweeps 0.1 … 8760 per year.
func BenchmarkFig6bExploitSweep(b *testing.B) {
	an := core.Analyzer{NMax: 2, Horizon: 1}
	rates := core.LogSpace(0.1, 8760, 9)
	var pts []core.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = an.SweepContext(b.Context(), arch.Architecture1(), arch.MessageM,
			transform.Confidentiality, transform.Unencrypted,
			core.SweepExploitRate, arch.Telematics, arch.BusInternet, rates)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*pts[0].TimeFraction, "pct_lo")
	b.ReportMetric(100*pts[len(pts)-1].TimeFraction, "pct_hi")
}

// BenchmarkScalabilityNmax recovers the Section-4.3 state-space growth with
// the exploit cap nmax.
func BenchmarkScalabilityNmax(b *testing.B) {
	for _, nmax := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("nmax%d", nmax), func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := transform.Build(arch.Architecture1(), arch.MessageM, transform.Options{
					NMax: nmax, Category: transform.Availability,
				})
				if err != nil {
					b.Fatal(err)
				}
				ex, err := res.Model.ExploreContext(b.Context(), modular.ExploreOpts{})
				if err != nil {
					b.Fatal(err)
				}
				states = ex.N()
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkScalabilityECUs recovers the state-space growth with the number
// of modelled components using the synthetic generator.
func BenchmarkScalabilityECUs(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("ecus%d", n), func(b *testing.B) {
			spec := arch.SyntheticSpec{ECUs: n, Buses: 2}
			var states int
			for i := 0; i < b.N; i++ {
				a, err := arch.Synthetic(spec)
				if err != nil {
					b.Fatal(err)
				}
				res, err := transform.Build(a, arch.MessageM, transform.Options{
					NMax: 2, Category: transform.Availability,
				})
				if err != nil {
					b.Fatal(err)
				}
				ex, err := res.Model.ExploreContext(b.Context(), modular.ExploreOpts{})
				if err != nil {
					b.Fatal(err)
				}
				states = ex.N()
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkAblationPatchGuard measures the impact of the paper's literal
// Eq. (2) patch guard (DESIGN.md §4 deviation 1).
func BenchmarkAblationPatchGuard(b *testing.B) {
	for _, literal := range []bool{false, true} {
		name := "default"
		if literal {
			name = "literal"
		}
		b.Run(name, func(b *testing.B) {
			an := core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true, LiteralPatchGuard: literal}
			var r *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = an.AnalyzeContext(b.Context(), arch.Architecture3(), arch.MessageM,
					transform.Availability, transform.Unencrypted)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Percent(), "pct")
		})
	}
}

// BenchmarkAblationLinearRates measures the impact of exploit-count-scaled
// patch rates (DESIGN.md §4 deviation 4).
func BenchmarkAblationLinearRates(b *testing.B) {
	for _, linear := range []bool{false, true} {
		name := "constant"
		if linear {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			an := core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true, LinearPatchRates: linear}
			var r *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = an.AnalyzeContext(b.Context(), arch.Architecture1(), arch.MessageM,
					transform.Availability, transform.Unencrypted)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Percent(), "pct")
		})
	}
}

// BenchmarkFoxGlynnVsNaive compares the Fox–Glynn weight computation with
// naive log-space pmf evaluation over the same window — the reason the
// uniformisation engine uses Fox–Glynn.
func BenchmarkFoxGlynnVsNaive(b *testing.B) {
	const lambda = 5000
	b.Run("foxglynn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := foxglynn.Compute(lambda, 1e-10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum float64
			for k := 4500; k <= 5500; k++ {
				lg, _ := math.Lgamma(float64(k) + 1)
				sum += math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
			}
			if sum <= 0 {
				b.Fatal("pmf vanished")
			}
		}
	})
}

// BenchmarkEngineTransient isolates the uniformisation kernel on the
// largest case-study model.
func BenchmarkEngineTransient(b *testing.B) {
	res, err := transform.Build(arch.Architecture2(), arch.MessageM, transform.Options{
		NMax: 2, Category: transform.Confidentiality, Protection: transform.AES128,
	})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := res.Model.ExploreContext(b.Context(), modular.ExploreOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Chain.TransientContext(b.Context(), ex.InitDistribution(), 1, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateSynthetic isolates the long-run metric (BSCC
// decomposition and balance-equation solve) on the 19,683-state synthetic
// chain of the synthetic-20k benchmark workload; run it with -benchmem to
// see its allocations.
func BenchmarkSteadyStateSynthetic(b *testing.B) {
	ar, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 7, Buses: 2})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Analyzer{NMax: 2}.PrepareContext(context.Background(), ar, arch.MessageM, transform.Availability, transform.Unencrypted)
	if err != nil {
		b.Fatal(err)
	}
	ex := p.Explored
	mask, err := ex.LabelMask(transform.LabelViolated)
	if err != nil {
		b.Fatal(err)
	}
	init := ex.InitDistribution()
	b.ResetTimer()
	var steady float64
	for i := 0; i < b.N; i++ {
		if steady, err = ex.Chain.SteadyStateProbabilityContext(b.Context(), init, mask); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ex.N()), "states")
	b.ReportMetric(steady, "steady")
}

// BenchmarkAnalyzeSynthetic is one whole AnalyzeContext of the 19,683-state
// synthetic chain of the synthetic-20k benchmark workload (telematics patch
// rate 52/yr, nmax 2, one-year horizon, steady state on): exploration, then
// the reward pass and the steady-state solve, which run concurrently. Run
// it with -benchmem to see the allocations per analysis.
func BenchmarkAnalyzeSynthetic(b *testing.B) {
	ar, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 7, Buses: 2})
	if err != nil {
		b.Fatal(err)
	}
	ar.ECU("TEL").PatchRate = 52
	an := core.Analyzer{NMax: 2, Horizon: 1}
	var r *core.Result
	for i := 0; i < b.N; i++ {
		if r, err = an.AnalyzeContext(context.Background(), ar, arch.MessageM, transform.Availability, transform.Unencrypted); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.States), "states")
}

// BenchmarkPaperScale is one AnalyzeContext per op of the synthetic
// architecture with 10 ECUs on 2 buses: 531,441 states and about 8.5 M
// transitions, the size of the paper's own chains (0.4–1.2 M states). It
// reports ms per stage from a collector's spans — explore, the reward
// pass and the steady-state solve, which overlap, so their sum exceeds
// the wall time — and the Go heap reserved from the OS (HeapSys, the sum
// of the /memory/classes/heap/ metrics of runtime/metrics), which never
// shrinks and so bounds the peak. Run it alone, at -benchtime 1x, for a
// heap figure that holds this benchmark only; it takes about 20 s.
func BenchmarkPaperScale(b *testing.B) {
	ar, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 10, Buses: 2})
	if err != nil {
		b.Fatal(err)
	}
	col := obs.NewCollector()
	ctx, root := obs.NewTracer(col, false).StartSpan(context.Background(), "bench.paper_scale")
	an := core.Analyzer{NMax: 2, Horizon: 1}
	var r *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err = an.AnalyzeContext(ctx, ar, arch.MessageM, transform.Availability, transform.Unencrypted); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	root.End()
	n := float64(b.N)
	for _, ph := range col.Manifest("", nil).Phases {
		switch ph.Name {
		case "modular.explore":
			b.ReportMetric(1000*ph.Seconds/n, "explore_ms/op")
		case "ctmc.cumulative_reward":
			b.ReportMetric(1000*ph.Seconds/n, "reward_ms/op")
		case "ctmc.steadystate":
			b.ReportMetric(1000*ph.Seconds/n, "steady_ms/op")
		}
	}
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(heap)
	var sys uint64
	for _, s := range heap {
		sys += s.Value.Uint64()
	}
	b.ReportMetric(float64(sys)/(1<<20), "heap_sys_MiB")
	b.ReportMetric(float64(r.States), "states")
}

// BenchmarkExplorePaperScale is one PrepareContext per op of the synthetic
// architecture with 10 ECUs on 2 buses: the transformation, the
// exploration of its 531,441 states and the labelling of the chain. It
// reports states and ms per op; -benchmem gives the bytes, which at this
// size are mostly the rate CSR as it grows.
func BenchmarkExplorePaperScale(b *testing.B) {
	ar, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 10, Buses: 2})
	if err != nil {
		b.Fatal(err)
	}
	an := core.Analyzer{NMax: 2, Horizon: 1}
	var p *core.Prepared
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, err = an.PrepareContext(b.Context(), ar, arch.MessageM, transform.Availability, transform.Unencrypted); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
	b.ReportMetric(float64(p.Explored.N()), "states")
}

// BenchmarkEngineExplore isolates state-space exploration.
func BenchmarkEngineExplore(b *testing.B) {
	res, err := transform.Build(arch.Architecture2(), arch.MessageM, transform.Options{
		NMax: 2, Category: transform.Confidentiality, Protection: transform.AES128,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		ex, err := res.Model.ExploreContext(b.Context(), modular.ExploreOpts{})
		if err != nil {
			b.Fatal(err)
		}
		states = ex.N()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkPRISMRoundTrip parses the exported Architecture 1 model — the
// mini-PRISM front end.
func BenchmarkPRISMRoundTrip(b *testing.B) {
	res, err := transform.Build(arch.Architecture1(), arch.MessageM, transform.Options{
		NMax: 2, Category: transform.Availability,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := res.Model.ExportPRISM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prismlang.ParseModel(src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSLCheck measures full property evaluation via the CSL layer.
func BenchmarkCSLCheck(b *testing.B) {
	res, err := transform.Build(arch.Architecture1(), arch.MessageM, transform.Options{
		NMax: 2, Category: transform.Availability,
	})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := res.Model.ExploreContext(b.Context(), modular.ExploreOpts{})
	if err != nil {
		b.Fatal(err)
	}
	prop, err := csl.Parse(`P=? [ F<=1 "violated" ]`, csl.Environment{Model: res.Model})
	if err != nil {
		b.Fatal(err)
	}
	checker := csl.NewChecker(ex)
	b.ResetTimer()
	var v float64
	for i := 0; i < b.N; i++ {
		r, err := checker.CheckContext(b.Context(), prop)
		if err != nil {
			b.Fatal(err)
		}
		v = r.Value
	}
	b.ReportMetric(100*v, "pct")
}

// BenchmarkMonteCarloValidation measures the Gillespie cross-validator on
// the Architecture 1 availability model.
func BenchmarkMonteCarloValidation(b *testing.B) {
	res, err := transform.Build(arch.Architecture1(), arch.MessageM, transform.Options{
		NMax: 2, Category: transform.Availability,
	})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := res.Model.ExploreContext(b.Context(), modular.ExploreOpts{})
	if err != nil {
		b.Fatal(err)
	}
	mask, err := ex.LabelMask(transform.LabelViolated)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(ex.Chain, 1)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		mean, _, err = s.TimeFraction(ex.InitIndex(), mask, 1, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*mean, "pct")
}

// BenchmarkAblationLumping measures the paper's proposed state-merging
// optimisation (ordinary lumping): quotient size and runtime vs the full
// chain.
func BenchmarkAblationLumping(b *testing.B) {
	for _, lump := range []bool{false, true} {
		name := "full"
		if lump {
			name = "lumped"
		}
		b.Run(name, func(b *testing.B) {
			an := core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true, UseLumping: lump}
			var r *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = an.AnalyzeContext(b.Context(), arch.Architecture2(), arch.MessageM,
					transform.Confidentiality, transform.AES128)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Percent(), "pct")
			if lump {
				b.ReportMetric(float64(r.LumpedStates), "states")
			} else {
				b.ReportMetric(float64(r.States), "states")
			}
		})
	}
}

// BenchmarkServiceCachedVsCold measures the service engine on the Figure-5
// workload (builtin Architecture 1, full CIA × protection grid): "cold"
// rebuilds the caches every iteration — the price a one-shot CLI run pays —
// while "cached" re-serves the identical request from the content-addressed
// result cache. The ratio is the speedup a resident secserved gives
// repeated and sweep-style traffic. "disk-warm" opens a fresh engine over a
// populated persistent store every iteration: the warm-restart price (index
// walk, disk read, checksum, decode) between the two.
func BenchmarkServiceCachedVsCold(b *testing.B) {
	req := &service.AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := service.NewEngine(service.EngineOptions{})
			if _, _, err := e.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		e := service.NewEngine(service.EngineOptions{})
		if _, _, err := e.Run(ctx, req); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, state, err := e.Run(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if state != service.CacheHit {
				b.Fatalf("cache state = %q, want hit", state)
			}
		}
	})

	// model-hit is service-mix's fresh-horizon request: a single cell at a
	// horizon the result cache has not seen, on a warm engine whose model
	// was solved at a longer horizon. matvecs/op counts the uniformisation
	// products the solves ran.
	b.Run("model-hit", func(b *testing.B) {
		e := service.NewEngine(service.EngineOptions{})
		cell := func(h float64) *service.AnalysisRequest {
			return &service.AnalysisRequest{Architecture: "builtin:1", Category: "c", Protection: "none", Horizon: h}
		}
		if _, _, err := e.Run(ctx, cell(4)); err != nil {
			b.Fatal(err) // warm the model
		}
		col := obs.NewCollector()
		tctx, root := obs.NewTracer(col, false).StartSpan(ctx, "bench.model_hit")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, state, err := e.Run(tctx, cell(1+3*float64(i)/float64(b.N)))
			if err != nil {
				b.Fatal(err)
			}
			if state != service.CacheMiss {
				b.Fatalf("cache state = %q, want miss", state)
			}
		}
		b.StopTimer()
		root.End()
		for _, ph := range col.Manifest("", nil).Phases {
			if ph.Name == "ctmc.cumulative_reward" {
				b.ReportMetric(ph.Attrs["matvecs"].Sum/float64(b.N), "matvecs/op")
			}
		}
	})

	b.Run("disk-warm", func(b *testing.B) {
		dir := b.TempDir()
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := service.NewEngine(service.EngineOptions{Store: st}).Run(ctx, req); err != nil {
			b.Fatal(err) // populate the store
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := store.Open(store.Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			_, state, err := service.NewEngine(service.EngineOptions{Store: st}).Run(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if state != service.CacheDisk {
				b.Fatalf("cache state = %q, want disk", state)
			}
		}
	})
}

// BenchmarkAttackTreeFleet batch-solves a seeded 32-vehicle attack-tree
// fleet on a fresh engine per iteration: the generator → compile → CTMC
// solve path under the batch worker pool, with no cache reuse across
// iterations.
func BenchmarkAttackTreeFleet(b *testing.B) {
	reqs, err := fleetgen.Requests(fleetgen.Spec{Seed: 1, Count: 32}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := service.NewEngine(service.EngineOptions{})
		for j, item := range e.RunBatch(ctx, reqs, 0) {
			if item.Err != nil {
				b.Fatalf("fleet request %d: %v", j, item.Err)
			}
		}
	}
}
