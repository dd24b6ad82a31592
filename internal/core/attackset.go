package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/modular"
	"repro/internal/transform"
)

// AttackPaths returns the k most probable distinct attack paths (over the
// embedded jump chain) from the secure initial state to a violated state,
// via Yen's k-shortest-paths algorithm on −log probabilities. Distinct
// means the state sequences differ; probabilities are non-increasing.
func (a Analyzer) AttackPaths(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection, k int) ([]*AttackPath, error) {
	a = a.withDefaults()
	if k <= 0 {
		k = 1
	}
	p, err := a.PrepareContext(context.Background(), ar, msgName, cat, prot)
	if err != nil {
		return nil, err
	}
	ex, model := p.Explored, p.Transform.Model
	routes := newPathGraph(ex, p.mask).yen(ex.InitIndex(), k)
	if len(routes) == 0 {
		return nil, fmt.Errorf("%w (%s, %s, %s)", ErrNoAttackPath, ar.Name, cat, prot)
	}
	out := make([]*AttackPath, 0, len(routes))
	var fromSt, toSt []int
	for _, route := range routes {
		path := &AttackPath{Probability: math.Exp(-route.dist)}
		for i := 1; i < len(route.nodes); i++ {
			from, to := route.nodes[i-1], route.nodes[i]
			fromSt, toSt = ex.State(from, fromSt), ex.State(to, toSt)
			rate := ex.Chain.Rates.At(from, to)
			path.Steps = append(path.Steps, AttackStep{
				Description: describeTransition(model, fromSt, toSt),
				Rate:        rate,
				Probability: rate / ex.Chain.Exit[from],
				State:       model.FormatState(toSt),
			})
		}
		out = append(out, path)
	}
	return out, nil
}

// pathGraph is the embedded chain as a weighted digraph with all violated
// states collapsed into a virtual sink so that "any violated state" is a
// single target.
type pathGraph struct {
	n    int // real states; sink is node n
	adj  [][]pathEdge
	sink int
}

type pathEdge struct {
	to int
	w  float64
}

type route struct {
	nodes []int // real states only (sink stripped)
	dist  float64
}

func newPathGraph(ex *modular.Explored, violated []bool) *pathGraph {
	n := ex.N()
	g := &pathGraph{n: n, adj: make([][]pathEdge, n+1), sink: n}
	for i := 0; i < n; i++ {
		if violated[i] {
			// Violated states route straight to the sink at no cost; their
			// outgoing edges are irrelevant for attack-path purposes.
			g.adj[i] = []pathEdge{{to: g.sink, w: 0}}
			continue
		}
		exit := ex.Chain.Exit[i]
		if exit == 0 {
			continue
		}
		cols, vals := ex.Chain.Rates.Row(i)
		for k, j := range cols {
			p := vals[k] / exit
			if p > 0 {
				g.adj[i] = append(g.adj[i], pathEdge{to: int(j), w: -math.Log(p)})
			}
		}
	}
	return g
}

// dijkstra finds the shortest path src → sink avoiding banned edges and
// nodes. Returns nil if unreachable.
func (g *pathGraph) dijkstra(src int, bannedEdge map[[2]int]bool, bannedNode []bool) *route {
	dist := make([]float64, g.n+1)
	prev := make([]int, g.n+1)
	done := make([]bool, g.n+1)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	if bannedNode[src] {
		return nil
	}
	dist[src] = 0
	pq := &pathHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pathItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == g.sink {
			break
		}
		for _, e := range g.adj[u] {
			if bannedNode[e.to] || bannedEdge[[2]int{u, e.to}] {
				continue
			}
			if d := it.dist + e.w; d < dist[e.to] {
				dist[e.to] = d
				prev[e.to] = u
				heap.Push(pq, pathItem{node: e.to, dist: d})
			}
		}
	}
	if math.IsInf(dist[g.sink], 1) {
		return nil
	}
	var nodes []int
	for v := g.sink; v != -1; v = prev[v] {
		nodes = append(nodes, v)
	}
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	return &route{nodes: nodes[:len(nodes)-1], dist: dist[g.sink]} // strip sink
}

type pathItem struct {
	node int
	dist float64
}

// pathHeap is dijkstra's priority queue, ordered by distance.
type pathHeap []pathItem

func (h pathHeap) Len() int            { return len(h) }
func (h pathHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h pathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x interface{}) { *h = append(*h, x.(pathItem)) }
func (h *pathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// yen enumerates up to k loopless shortest routes src → sink.
func (g *pathGraph) yen(src, k int) []*route {
	noBan := make([]bool, g.n+1)
	first := g.dijkstra(src, map[[2]int]bool{}, noBan)
	if first == nil {
		return nil
	}
	paths := []*route{first}
	var candidates []*route
	seen := map[string]bool{routeKey(first): true}

	for len(paths) < k {
		last := paths[len(paths)-1]
		for spurIdx := 0; spurIdx < len(last.nodes); spurIdx++ {
			spurNode := last.nodes[spurIdx]
			rootNodes := last.nodes[:spurIdx+1]
			bannedEdge := make(map[[2]int]bool)
			for _, p := range paths {
				if len(p.nodes) > spurIdx && equalPrefix(p.nodes, rootNodes) {
					if len(p.nodes) > spurIdx+1 {
						bannedEdge[[2]int{p.nodes[spurIdx], p.nodes[spurIdx+1]}] = true
					} else {
						// Path ends at the spur node: its edge to the sink
						// is the continuation to ban.
						bannedEdge[[2]int{p.nodes[spurIdx], g.sink}] = true
					}
				}
			}
			bannedNode := make([]bool, g.n+1)
			for _, v := range rootNodes[:spurIdx] {
				bannedNode[v] = true
			}
			spur := g.dijkstra(spurNode, bannedEdge, bannedNode)
			if spur == nil {
				continue
			}
			// Root cost.
			var rootDist float64
			for i := 1; i <= spurIdx; i++ {
				rootDist += g.edgeWeight(last.nodes[i-1], last.nodes[i])
			}
			total := &route{
				nodes: append(append([]int{}, rootNodes[:spurIdx]...), spur.nodes...),
				dist:  rootDist + spur.dist,
			}
			key := routeKey(total)
			if !seen[key] {
				seen[key] = true
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].dist < candidates[j].dist })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func (g *pathGraph) edgeWeight(u, v int) float64 {
	for _, e := range g.adj[u] {
		if e.to == v {
			return e.w
		}
	}
	return math.Inf(1)
}

func equalPrefix(nodes, prefix []int) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}

func routeKey(r *route) string {
	b := make([]byte, 0, 4*len(r.nodes))
	for _, v := range r.nodes {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// CriticalComponent reports whether hardening one component to
// unexploitable completely removes the attack (violation unreachable) and
// the residual exploitable time otherwise.
type CriticalComponent struct {
	Name string
	// Blocks is true when zeroing this component's exploit rates makes the
	// violated states unreachable — a single point the defender can fix.
	Blocks bool
	// ResidualTimeFraction is the exploitable time with the component
	// hardened (0 when Blocks).
	ResidualTimeFraction float64
}

// CriticalComponents evaluates, for every ECU (and FlexRay guardian), the
// effect of making it unexploitable: the "what should we harden first"
// answer, complementary to the elasticity ranking. Sorted by residual
// exposure ascending (most effective hardening first).
func (a Analyzer) CriticalComponents(ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) ([]CriticalComponent, error) {
	a.SkipSteadyState = true
	analyzeHardened := func(mutate func(*arch.Architecture)) (CriticalComponent, error) {
		c := ar.Clone()
		mutate(c)
		ctx := context.Background()
		p, err := a.PrepareContext(ctx, c, msgName, cat, prot)
		if err != nil {
			return CriticalComponent{}, err
		}
		r, err := a.AnalyzePreparedContext(ctx, p)
		if err != nil {
			return CriticalComponent{}, err
		}
		// Graph reachability of a violated state decides Blocks; no
		// quantitative solve needed.
		ex := p.Explored
		reach := graph.Reachable(ex.Chain.Rates, []int{ex.InitIndex()}, nil)
		blocks := true
		for i, v := range p.mask {
			if v && reach[i] {
				blocks = false
				break
			}
		}
		return CriticalComponent{
			Blocks:               blocks,
			ResidualTimeFraction: r.TimeFraction,
		}, nil
	}
	var out []CriticalComponent
	for i := range ar.ECUs {
		name := ar.ECUs[i].Name
		cc, err := analyzeHardened(func(c *arch.Architecture) {
			e := c.ECU(name)
			for k := range e.Interfaces {
				e.Interfaces[k].ExploitRate = 0
			}
		})
		if err != nil {
			return nil, err
		}
		cc.Name = name
		out = append(out, cc)
	}
	for i := range ar.Buses {
		b := &ar.Buses[i]
		if b.Guardian == nil {
			continue
		}
		name := b.Name
		cc, err := analyzeHardened(func(c *arch.Architecture) {
			c.Bus(name).Guardian.ExploitRate = 0
		})
		if err != nil {
			return nil, err
		}
		cc.Name = "guardian:" + name
		out = append(out, cc)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].ResidualTimeFraction < out[j].ResidualTimeFraction
	})
	return out, nil
}
