package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// callers is the number of closed-loop callers driving service-mix: one
// per CPU of the two-core machine the benchmark was defined on, fixed so
// runs on other machines offer the same load.
const callers = 2

// child is a running secserved process with its own result store.
type child struct {
	cmd    *exec.Cmd
	pid    string
	url    string
	store  string
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
	err    error         // wait status, valid after exited closes
}

// startChild starts secserved with default flags on a free loopback port and
// a fresh store under out, and waits until /v1/healthz answers.
func startChild(ctx context.Context, bin, out string, n int) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	store := filepath.Join(out, fmt.Sprintf("store-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(out, fmt.Sprintf("secserved-%d.log", n)))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", store)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting secserved: %w", err)
	}
	c := &child{
		cmd:   cmd,
		pid:   strconv.Itoa(cmd.Process.Pid),
		url:   "http://" + addr,
		store: store,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: callers,
			IdleConnTimeout:     time.Minute,
		}},
		exited: make(chan struct{}),
	}
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()
	if err := c.waitHealthy(ctx, 20*time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /v1/healthz until it answers 200, the child exits, or
// the deadline passes.
func (c *child) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("secserved exited during start: %v", c.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("secserved not healthy after %s", limit)
		}
	}
}

// stop kills the child, waits for it, and removes its store.
func (c *child) stop() {
	c.client.CloseIdleConnections()
	_ = c.cmd.Process.Kill() // fails only if it already exited
	<-c.exited
	os.RemoveAll(c.store)
}

// getJSON decodes the JSON body of GET path into v.
func (c *child) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reqRecord is the client's view of one finished request.
type reqRecord struct {
	req   genRequest
	start time.Time
	rtt   time.Duration
	view  *service.JobView
	err   error
}

// post submits one request and waits for the finished job.
func (c *child) post(ctx context.Context, r genRequest) reqRecord {
	rec := reqRecord{req: r, start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/analyses", bytes.NewReader(r.body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.rtt = time.Since(rec.start)
	if err != nil {
		rec.err = err
		return rec
	}
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("HTTP %s: %s", resp.Status, bytes.TrimSpace(body))
		return rec
	}
	var v service.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		rec.err = fmt.Errorf("decoding job: %w", err)
		return rec
	}
	rec.view = &v
	return rec
}

// hotRefs holds the library's result for every hot key, computed in this
// process before setup is timed.
type hotRefs [numCells][len(hotHorizons)]reference

func computeHotRefs(ctx context.Context) (*hotRefs, error) {
	var refs hotRefs
	for c := 0; c < numCells; c++ {
		a, cat, prot := cellOf(c)
		an := core.Analyzer{NMax: 2}
		p, err := an.PrepareContext(ctx, caseStudy(a), arch.MessageM, core.Categories[cat], core.Protections[prot])
		if err != nil {
			return nil, err
		}
		for hi, h := range hotHorizons {
			an.Horizon = h
			r, err := an.AnalyzePreparedContext(ctx, p)
			if err != nil {
				return nil, err
			}
			refs[c][hi] = reference{r.TimeFraction, r.SteadyState, r.States, r.Transitions}
		}
	}
	return &refs, nil
}

// check verifies a finished request: the job is done, a hot key equals the
// library's value, and any other request analysed a model of its base
// cell's size with a probability in [0, 1].
func (refs *hotRefs) check(rec reqRecord) error {
	if rec.err != nil {
		return rec.err
	}
	v := rec.view
	if v.Status != service.StatusDone {
		return fmt.Errorf("job %s is %s: %s", v.ID, v.Status, v.Error)
	}
	if len(v.Results) != 1 || v.Results[0].SteadyState == nil {
		return fmt.Errorf("job %s: %d results, want 1 with a steady state", v.ID, len(v.Results))
	}
	res := v.Results[0]
	want := refs[rec.req.cell][0]
	if rec.req.class == classHot {
		for hi, h := range hotHorizons {
			if h == rec.req.horizon {
				want = refs[rec.req.cell][hi]
			}
		}
		if err := want.check(res.ExploitableTime, *res.SteadyState, res.States, res.Transitions); err != nil {
			return fmt.Errorf("hot key cell %d horizon %g: %w", rec.req.cell, rec.req.horizon, err)
		}
		return nil
	}
	if res.States != want.states || res.Transitions != want.transitions {
		return fmt.Errorf("%s request on cell %d: %d states/%d transitions, want %d/%d",
			rec.req.class, rec.req.cell, res.States, res.Transitions, want.states, want.transitions)
	}
	// Probabilities may exceed 1 by round-off (the recorded references hold
	// 1.000000000000002).
	if !(res.ExploitableTime >= 0 && res.ExploitableTime <= 1+1e-9 && *res.SteadyState >= 0 && *res.SteadyState <= 1+1e-9) {
		return fmt.Errorf("%s request on cell %d: probabilities out of range", rec.req.class, rec.req.cell)
	}
	return nil
}

// warm submits every hot key once, two callers at a time, and verifies the
// answers.
func warm(ctx context.Context, c *child, refs *hotRefs) error {
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				stop := firstErr != nil || k >= numHot
				mu.Unlock()
				if stop {
					return
				}
				rec := c.post(ctx, hotRequest(k))
				if err := refs.check(rec); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warming hot key %d: %w", k, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// serverMetrics is the part of /v1/metrics the benchmark reads.
type serverMetrics struct {
	Engine service.EngineStats `json:"engine"`
}

// runService sets up a secserved child setupRepeats times — start, health
// wait, hot-set warm-up — keeps the last one, and drives it with the seeded
// request mix from two closed-loop callers until the window ends.
func runService(ctx context.Context, cfg config) (*report, error) {
	if cfg.secserved == "" {
		return nil, errors.New("service-mix needs -secserved")
	}
	rep := newReport()
	refs, err := computeHotRefs(ctx)
	if err != nil {
		return nil, fmt.Errorf("library references: %w", err)
	}
	var srv *child
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		if srv, err = startChild(ctx, cfg.secserved, cfg.out, k); err != nil {
			return nil, err
		}
		if err := warm(ctx, srv, refs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.meta["store_tmpfs"] = isTmpfs(cfg.out)
	runtime.GC()

	var m0, m1 serverMetrics
	var p0, p1 obs.Manifest
	if err := srv.getJSON(ctx, "/v1/metrics", &m0); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := srv.getJSON(ctx, "/v1/metrics/pipeline", &p0); err != nil {
			return nil, err
		}
	}
	srvCPU0, err := processCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	selfCPU0, err := processCPU("self")
	if err != nil {
		return nil, err
	}

	// The window's peak, not the warm-up's: reset the child's high-water mark.
	rep.meta["rss_window_only"] = resetPeakRSS(srv.pid) == nil
	gen := newGenerator(cfg.seed)
	var (
		mu      sync.Mutex
		records []reqRecord
		wg      sync.WaitGroup
	)
	steal0 := readCPUStat()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				mu.Lock()
				r := gen.next()
				mu.Unlock()
				rec := srv.post(ctx, r)
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	rep.meta["cpu_steal_pct"] = stealPct(steal0, readCPUStat())
	rep.meta["window_s"] = window.Seconds()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	srvCPU1, err := processCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	selfCPU1, err := processCPU("self")
	if err != nil {
		return nil, err
	}
	if err := srv.getJSON(ctx, "/v1/metrics", &m1); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := srv.getJSON(ctx, "/v1/metrics/pipeline", &p1); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB(srv.pid)
	if err != nil {
		return nil, err
	}

	var all, misses []float64
	var verified []interval
	var intended, served [3]int
	for _, rec := range records {
		rep.attempted++
		intended[rec.req.class]++
		if rec.view != nil && rec.view.Cache == service.CacheHit {
			served[classHot]++
		}
		if err := refs.check(rec); err != nil {
			rep.failed++
			rep.problem("%v", err)
			continue
		}
		all = append(all, ms(rec.rtt))
		verified = append(verified, interval{rec.start.Sub(start), rec.start.Add(rec.rtt).Sub(start)})
		if rec.view.Cache == service.CacheMiss {
			misses = append(misses, ms(rec.rtt))
		}
	}
	n := len(all)
	rep.meta["miss_ms_quartiles"] = [3]float64{quantile(misses, 0.25), median(misses), quantile(misses, 0.75)}
	rep.set("ops_per_s", sliceRate(verified, window), n)
	rep.set("latency_p50_ms", median(all), n)
	rep.set("miss_p50_ms", median(misses), len(misses))
	rep.set("peak_rss_mb", rss, 1)

	// The served classes must match the generator's shares: the job's cache
	// field counts hits, the model-cache deltas split the misses.
	e0, e1 := m0.Engine, m1.Engine
	served[classHorizon] = int(e1.ModelCache.Hits - e0.ModelCache.Hits)
	served[classVariant] = int(e1.ModelCache.Misses - e0.ModelCache.Misses)
	if total := len(records); total > 0 {
		for cl := classHot; cl <= classVariant; cl++ {
			want, got := float64(intended[cl])/float64(total), float64(served[cl])/float64(total)
			rep.meta["share_"+cl.String()] = fmt.Sprintf("intended %.4f served %.4f", want, got)
			if math.Abs(want-got) > 0.02 {
				rep.problem("%s share: intended %.1f%%, served %.1f%%", cl, 100*want, 100*got)
			}
		}
	}

	if cfg.trace {
		ops := float64(max(n, 1))
		rep.set("server.cpu_ms_per_op", ms(srvCPU1-srvCPU0)/ops, n)
		rep.set("loadgen.cpu_ms_per_op", ms(selfCPU1-selfCPU0)/ops, n)
		serviceLayerMetrics(rep, records, refs)
		engineMetrics(rep, e0, e1)
		pipelineMetrics(rep, &p0, &p1)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeRequestSpans(path, records, start); err != nil {
			return nil, err
		}
		rep.meta["spans"] = path
	}
	return rep, nil
}

// serviceLayerMetrics derives the HTTP, queue and execution split from the
// client round trips and the job timestamps in the responses. Tracing here
// adds no work inside the window — the client spans are the round trips
// every run measures — so service-mix reports no trace.overhead_pct.
func serviceLayerMetrics(rep *report, records []reqRecord, refs *hotRefs) {
	var rttHit, httpOver, queue, execHit, execHorizon, execFull, all []float64
	for _, rec := range records {
		if refs.check(rec) != nil {
			continue
		}
		v := rec.view
		if v.Started == nil || v.Finished == nil {
			continue
		}
		all = append(all, ms(rec.rtt))
		queue = append(queue, ms(v.Started.Sub(v.Created)))
		exec := ms(v.Finished.Sub(*v.Started))
		switch {
		case v.Cache == service.CacheHit:
			rttHit = append(rttHit, ms(rec.rtt))
			httpOver = append(httpOver, ms(rec.rtt)-ms(v.Finished.Sub(v.Created)))
			execHit = append(execHit, exec)
		case rec.req.class == classHorizon:
			execHorizon = append(execHorizon, exec)
		case rec.req.class == classVariant:
			execFull = append(execFull, exec)
		}
	}
	rep.set("service.rtt_hit_ms", median(rttHit), len(rttHit))
	rep.set("service.http_overhead_ms", median(httpOver), len(httpOver))
	rep.set("service.queue_wait_ms", median(queue), len(queue))
	rep.set("service.queue_wait_p99_ms", quantile(queue, 0.99), len(queue))
	rep.set("service.exec_resolve_ms", median(execHit), len(execHit))
	rep.set("service.exec_model_hit_ms", median(execHorizon), len(execHorizon))
	rep.set("service.exec_full_ms", median(execFull), len(execFull))
	rep.set("service.latency_p99_ms", quantile(all, 0.99), len(all))
}

// engineMetrics reports the engine's cache and store counter deltas over
// the window.
func engineMetrics(rep *report, e0, e1 service.EngineStats) {
	ratio := func(h0, m0, h1, m1 int64) (float64, int) {
		n := (h1 - h0) + (m1 - m0)
		if n == 0 {
			return 0, 0
		}
		return float64(h1-h0) / float64(n), int(n)
	}
	r, n := ratio(e0.ResultCache.Hits, e0.ResultCache.Misses, e1.ResultCache.Hits, e1.ResultCache.Misses)
	rep.set("engine.result_hit_ratio", r, n)
	r, n = ratio(e0.ModelCache.Hits, e0.ModelCache.Misses, e1.ModelCache.Hits, e1.ModelCache.Misses)
	rep.set("engine.model_hit_ratio", r, n)
	rep.set("engine.shared", float64(e1.Shared-e0.Shared), 1)
	if e0.Store != nil && e1.Store != nil {
		puts := e1.Store.Puts - e0.Store.Puts
		rep.set("store.puts", float64(puts), 1)
		if puts > 0 {
			rep.set("store.bytes_per_put", float64(e1.Store.Bytes-e0.Store.Bytes)/float64(puts), int(puts))
		}
	}
}

// pipelineMetrics reports the library layers as the server's own collector
// saw them over the window: mean time and counts per call. The server does
// not record allocations, so those stay unreported here.
func pipelineMetrics(rep *report, p0, p1 *obs.Manifest) {
	phase := func(m *obs.Manifest, name string) obs.PhaseStat {
		for _, p := range m.Phases {
			if p.Name == name {
				return p
			}
		}
		return obs.PhaseStat{}
	}
	perCall := func(metric, name, attr string, scale float64) {
		a, b := phase(p0, name), phase(p1, name)
		n := b.Count - a.Count
		if n <= 0 {
			return
		}
		v := (b.Seconds - a.Seconds) * scale
		if attr != "" {
			v = b.Attrs[attr].Sum - a.Attrs[attr].Sum
		}
		rep.set(metric, v/float64(n), int(n))
	}
	perCall("transform.build_ms", "transform.build", "", 1e3)
	perCall("modular.explore_ms", "modular.explore", "", 1e3)
	perCall("modular.states", "modular.explore", "states", 1)
	perCall("modular.transitions", "modular.explore", "transitions", 1)
	perCall("ctmc.reward_ms", "ctmc.cumulative_reward", "", 1e3)
	perCall("ctmc.reward_matvecs", "ctmc.cumulative_reward", "matvecs", 1)
	perCall("ctmc.steady_ms", "ctmc.steadystate", "", 1e3)
}

// writeRequestSpans writes one client span per request as JSONL: its class,
// the served cache state, and the job's timestamps relative to the window
// start.
func writeRequestSpans(path string, records []reqRecord, start time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, rec := range records {
		s := map[string]any{
			"name":     "request." + rec.req.class.String(),
			"id":       i,
			"start_ns": rec.start.Sub(start),
			"end_ns":   rec.start.Add(rec.rtt).Sub(start),
		}
		if v := rec.view; v != nil {
			s["cache"] = v.Cache
			s["created_ns"] = v.Created.Sub(start)
			if v.Started != nil && v.Finished != nil {
				s["started_ns"] = v.Started.Sub(start)
				s["finished_ns"] = v.Finished.Sub(start)
			}
		}
		if rec.err != nil {
			s["error"] = rec.err.Error()
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
