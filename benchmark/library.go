package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/transform"
)

// cell is one analysed grid cell: an architecture and the message category
// and protection, solved for the paper's message m.
type cell struct {
	ar   *arch.Architecture
	cat  transform.Category
	prot transform.Protection
	want reference
}

// cellResult is what one cell's analysis returns.
type cellResult struct {
	frac, steady        float64
	states, transitions int
}

// libOp is the input of one library op.
type libOp struct {
	// archs, when set, are analysed whole through AnalyzeAllContext by the
	// untraced path; cells then list their grid in that order.
	archs []*arch.Architecture
	cells []cell
}

// libWorkload is a closed-loop library workload with one caller.
type libWorkload struct {
	name string
	an   core.Analyzer
	// op returns the inputs of op i; warm-up ops use negative i. Inputs
	// depend only on the seed and i.
	op func(i int) libOp
}

// fig5Workload runs the paper's whole Figure 5 per op: three case-study
// architectures × three categories × three protections. The seed permutes
// the order of the architectures in each op.
func fig5Workload(seed int64) libWorkload {
	return libWorkload{
		name: "fig5-grid",
		an:   core.Analyzer{NMax: 2, Horizon: 1},
		op: func(i int) libOp {
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(int64(i))))
			var op libOp
			for _, a := range rng.Perm(3) {
				ar := caseStudy(a)
				op.archs = append(op.archs, ar)
				for _, cat := range core.Categories {
					for _, prot := range core.Protections {
						op.cells = append(op.cells, cell{ar, cat, prot, fig5Refs[a][cat][prot]})
					}
				}
			}
			return op
		},
	}
}

// syntheticWorkload analyses availability of unencrypted m on the
// 7-ECU, 2-bus synthetic architecture (19,683 states) once per op, with the
// telematics patch rate taken from a grid over ±10% around 52/yr, as in a
// Figure 6 sweep. A seeded permutation of the grid orders the ops, so no two
// ops of a run share inputs until the grid is exhausted.
func syntheticWorkload(seed int64) libWorkload {
	perm := rand.New(rand.NewPCG(uint64(seed), 0x5eed)).Perm(len(syntheticRefs))
	return libWorkload{
		name: "synthetic-20k",
		an:   core.Analyzer{NMax: 2, Horizon: 1},
		op: func(i int) libOp {
			k := perm[(i+len(perm))%len(perm)]
			ar := syntheticArch(k)
			return libOp{cells: []cell{{ar, transform.Availability, transform.Unencrypted, syntheticRefs[k]}}}
		},
	}
}

func caseStudy(i int) *arch.Architecture {
	return [...]func() *arch.Architecture{arch.Architecture1, arch.Architecture2, arch.Architecture3}[i]()
}

// syntheticRate is the telematics patch rate of grid point k.
func syntheticRate(k int) float64 {
	return 52 * (0.9 + 0.2*(float64(k)+0.5)/float64(len(syntheticRefs)))
}

func syntheticArch(k int) *arch.Architecture {
	ar, err := arch.Synthetic(arch.SyntheticSpec{ECUs: 7, Buses: 2})
	if err != nil {
		panic(err) // a fixed, valid spec
	}
	ar.ECU("TEL").PatchRate = syntheticRate(k)
	return ar
}

// untraced runs one op the way a library user would.
func (w libWorkload) untraced(ctx context.Context, op libOp) ([]cellResult, error) {
	var out []cellResult
	if op.archs != nil {
		for _, ar := range op.archs {
			rs, err := w.an.AnalyzeAllContext(ctx, ar, arch.MessageM)
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				out = append(out, cellResult{r.TimeFraction, r.SteadyState, r.States, r.Transitions})
			}
		}
		return out, nil
	}
	for _, c := range op.cells {
		r, err := w.an.AnalyzeContext(ctx, c.ar, arch.MessageM, c.cat, c.prot)
		if err != nil {
			return nil, err
		}
		out = append(out, cellResult{r.TimeFraction, r.SteadyState, r.States, r.Transitions})
	}
	return out, nil
}

// traced runs one op as the sequence of public calls core makes for each
// cell, with a benchmark span around each call. The program's own obs
// spans report into rec, which attaches their counts to the open span.
func (w libWorkload) traced(ctx context.Context, rec *recorder, opID int, op libOp) ([]cellResult, error) {
	ctx, osp := obs.NewTracer(rec, false).StartSpan(ctx, "bench.op")
	defer osp.End()
	an := w.an
	root := rec.begin("op", opID)
	defer rec.end(root)
	out := make([]cellResult, 0, len(op.cells))
	for _, c := range op.cells {
		s := rec.begin("transform.build", opID)
		res, err := transform.Build(c.ar, arch.MessageM, an.TransformOptions(c.cat, c.prot))
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("modular.explore", opID)
		ex, err := res.Model.ExploreContext(ctx, modular.ExploreOpts{MaxStates: an.MaxStates, MaxTransitions: an.MaxTransitions})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		rec.attr(s, "states", int64(ex.N()))
		rec.attr(s, "transitions", int64(ex.Chain.Rates.NNZ()))
		s = rec.begin("core.label_mask", opID)
		mask, err := ex.LabelMask(transform.LabelViolated)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("core.init_distribution", opID)
		init := ex.InitDistribution()
		rec.end(s)
		s = rec.begin("ctmc.reward", opID)
		frac, err := ex.Chain.ExpectedTimeFractionContext(ctx, init, mask, an.Horizon, an.Accuracy)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("ctmc.steady", opID)
		steady, err := ex.Chain.SteadyStateProbabilityContext(ctx, init, mask)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cellResult{frac, steady, ex.N(), ex.Chain.Rates.NNZ()})
	}
	return out, nil
}

// verify checks an op's results against the recorded references.
func verify(op libOp, got []cellResult) error {
	if len(got) != len(op.cells) {
		return fmt.Errorf("%d results for %d cells", len(got), len(op.cells))
	}
	for i, c := range op.cells {
		g := got[i]
		if err := c.want.check(g.frac, g.steady, g.states, g.transitions); err != nil {
			return fmt.Errorf("%s/%s/%s: %w", c.ar.Name, c.cat, c.prot, err)
		}
	}
	return nil
}

// sameBits reports whether two result lists are bit-identical.
func sameBits(a, b []cellResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].frac) != math.Float64bits(b[i].frac) ||
			math.Float64bits(a[i].steady) != math.Float64bits(b[i].steady) ||
			a[i].states != b[i].states || a[i].transitions != b[i].transitions {
			return false
		}
	}
	return true
}

// runLibrary sets the workload up setupRepeats times (each an untimed,
// verified warm-up op followed by runtime.GC), then runs closed-loop ops
// until the window ends. An op that starts before the deadline finishes.
func runLibrary(ctx context.Context, cfg config, w libWorkload, procStart time.Time) (*report, error) {
	rep := newReport()
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		op := w.op(-1 - k)
		res, err := w.untraced(ctx, op)
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		if err := verify(op, res); err != nil {
			rep.problem("warm-up op: %v", err)
		}
		runtime.GC()
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))

	var (
		rec              *recorder
		lats, tracedLats []float64
		verified         []interval
		rssPerOp         []float64 // peak RSS of each op, MiB
		tracedByOp       = map[int]time.Duration{}
		opsRT            []opRuntime
	)
	if cfg.trace {
		rec = newRecorder()
	}
	rt := newRTReader()
	steal0 := readCPUStat()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		op := w.op(i)
		if !cfg.trace {
			rep.attempted++
			rssErr := resetPeakRSS("self")
			t := time.Now()
			res, err := w.untraced(ctx, op)
			lat := time.Since(t)
			if rssErr == nil {
				if rss, err := peakRSSMiB("self"); err == nil {
					rssPerOp = append(rssPerOp, rss)
				}
			}
			if err == nil {
				err = verify(op, res)
			}
			if err != nil {
				rep.failed++
				rep.problem("op %d: %v", i, err)
				continue
			}
			lats = append(lats, ms(lat))
			verified = append(verified, interval{t.Sub(start), t.Add(lat).Sub(start)})
			continue
		}
		// A traced pair: the same inputs untraced and traced, in alternating
		// order, so tracing overhead is measured under the same conditions.
		var plain, traced []cellResult
		var perr, terr error
		var plainLat, tracedLat time.Duration
		var rtOp opRuntime
		runPlain := func() {
			a := rt.read()
			t := time.Now()
			plain, perr = w.untraced(ctx, op)
			plainLat = time.Since(t)
			rtOp = opRuntime{a, rt.read()}
		}
		runTraced := func() {
			t := time.Now()
			traced, terr = w.traced(ctx, rec, i, op)
			tracedLat = time.Since(t)
		}
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		rep.attempted += 2
		if perr == nil {
			perr = verify(op, plain)
		}
		if terr == nil {
			terr = verify(op, traced)
		}
		if terr == nil && perr == nil && !sameBits(plain, traced) {
			terr = fmt.Errorf("traced results differ from untraced results")
		}
		for _, err := range []error{perr, terr} {
			if err != nil {
				rep.failed++
				rep.problem("op %d: %v", i, err)
			}
		}
		if perr != nil || terr != nil {
			continue
		}
		lats = append(lats, ms(plainLat))
		tracedLats = append(tracedLats, ms(tracedLat))
		opsRT = append(opsRT, rtOp)
		tracedByOp[i] = tracedLat
	}
	window := time.Since(start)
	rep.meta["cpu_steal_pct"] = stealPct(steal0, readCPUStat())
	rep.meta["window_s"] = window.Seconds()

	n := len(lats)
	rep.meta["latency_ms_quartiles"] = [3]float64{quantile(lats, 0.25), median(lats), quantile(lats, 0.75)}
	rep.set("ops_per_s", sliceRate(verified, window), n)
	p50 := median(lats)
	rep.set("latency_p50_ms", p50, n)
	// A library op has no cache: every op computes its result anew.
	rep.set("miss_p50_ms", p50, n)
	// The median of the ops' own peaks: the process-lifetime peak depends on
	// where garbage collections happen to fall relative to the largest op.
	if len(rssPerOp) > 0 {
		rep.set("peak_rss_mb", median(rssPerOp), len(rssPerOp))
	} else {
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss, 1)
	}

	if cfg.trace {
		if len(tracedLats) > 0 {
			rep.set("trace.overhead_pct", 100*(median(tracedLats)/p50-1), len(tracedLats))
		}
		coverage := rec.coverage(tracedByOp)
		for _, c := range coverage {
			if c < 0.95 || c > 1.05 {
				rep.problem("stage self times cover %.1f%% of a traced op's latency, want 95–105%%", 100*c)
				break
			}
		}
		rep.set("trace.self_coverage_pct", 100*median(coverage), len(coverage))
		layerMetrics(rep, rec)
		runtimeMetrics(rep, opsRT)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		if err := rec.writeJSONL(path); err != nil {
			return nil, err
		}
		rep.meta["spans"] = path
	}
	return rep, nil
}

// opRuntime brackets one untraced op with runtime readings.
type opRuntime struct{ before, after rtSample }

func runtimeMetrics(rep *report, ops []opRuntime) {
	var cpu, allocMB []float64
	var gc, total float64
	for _, o := range ops {
		c := o.after.cpu - o.before.cpu
		cpu = append(cpu, ms(c))
		allocMB = append(allocMB, float64(o.after.allocBytes-o.before.allocBytes)/(1<<20))
		gc += o.after.gcCPU - o.before.gcCPU
		total += c.Seconds()
	}
	rep.set("runtime.cpu_ms_per_op", median(cpu), len(cpu))
	rep.set("runtime.alloc_mb_per_op", median(allocMB), len(allocMB))
	if total > 0 {
		rep.set("runtime.gc_cpu_fraction", gc/total, len(ops))
	}
}

// coverage returns, for each op with a measured latency, the sum of the
// self times of its spans over that latency: the share of the traced op the
// stages account for.
func (r *recorder) coverage(latency map[int]time.Duration) []float64 {
	self := r.selfTimes()
	total := map[int]time.Duration{}
	for i, s := range r.spans {
		total[s.Op] += self[i]
	}
	var out []float64
	for op, lat := range latency {
		out = append(out, float64(total[op])/float64(lat))
	}
	return out
}

// layerMetrics turns the recorded spans into per-op layer totals and
// reports the median over traced ops.
func layerMetrics(rep *report, rec *recorder) {
	self := rec.selfTimes()
	type opAgg struct {
		ms                         map[string]float64
		allocs                     map[string]float64
		states, trans              float64
		matvecs, nnzMatvecs, bytes float64
		iterations                 float64
	}
	byOp := map[int]*opAgg{}
	var order []int
	var lastStates, lastTrans float64
	for i, s := range rec.spans {
		a := byOp[s.Op]
		if a == nil {
			a = &opAgg{ms: map[string]float64{}, allocs: map[string]float64{}}
			byOp[s.Op] = a
			order = append(order, s.Op)
		}
		name := s.Name
		if name == "op" || name == "core.label_mask" || name == "core.init_distribution" {
			name = "core.self"
		}
		a.ms[name] += ms(self[i])
		a.allocs[name] += float64(s.Allocs)
		switch s.Name {
		case "modular.explore":
			lastStates, lastTrans = float64(s.Attrs["states"]), float64(s.Attrs["transitions"])
			a.states += lastStates
			a.trans += lastTrans
		case "ctmc.reward":
			mv := float64(s.Attrs["matvecs"])
			a.matvecs += mv
			// The uniformised matrix holds the rate matrix plus a diagonal.
			nnz := lastTrans + lastStates
			a.nnzMatvecs += mv * nnz
			// CSR values and column indices (8 bytes each) per nonzero, row
			// pointers, and one vector read and one written per product.
			a.bytes += mv * (16*nnz + 8*(lastStates+1) + 16*lastStates)
		case "ctmc.steady":
			a.iterations += float64(s.Attrs["iterations"])
		}
	}
	perOp := map[string][]float64{}
	add := func(metric string, v float64) { perOp[metric] = append(perOp[metric], v) }
	for _, op := range order {
		a := byOp[op]
		for _, layer := range []string{"transform.build", "modular.explore", "ctmc.reward", "ctmc.steady"} {
			add(layer+"_ms", a.ms[layer])
			add(layer+"_allocs", a.allocs[layer])
		}
		add("core.self_ms", a.ms["core.self"])
		add("modular.states", a.states)
		add("modular.transitions", a.trans)
		add("ctmc.reward_matvecs", a.matvecs)
		add("ctmc.steady_iterations", a.iterations)
		if a.states > 0 {
			add("modular.allocs_per_state", a.allocs["modular.explore"]/a.states)
		}
		if a.nnzMatvecs > 0 {
			add("ctmc.reward_ns_per_nnz", a.ms["ctmc.reward"]*1e6/a.nnzMatvecs)
			add("ctmc.reward_bytes_per_matvec", a.bytes/a.matvecs)
		}
	}
	for metric, xs := range perOp {
		rep.set(metric, median(xs), len(xs))
	}
}
