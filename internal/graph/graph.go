// Package graph provides the directed-graph algorithms the model checker
// needs, run straight on a sparse matrix: strongly connected components
// (Tarjan, iterative), bottom SCC detection for steady-state analysis of
// reducible chains, and forward / backward reachability used to
// precompute trivially-0 / trivially-1 states for probabilistic
// reachability. The graph of a *linalg.CSR has an edge i→j for every
// stored entry (i, j) with a positive value.
package graph

import "repro/internal/linalg"

// SCCs computes the strongly connected components of m with an iterative
// Tarjan algorithm (no recursion, so million-state chains cannot overflow
// the stack). It returns the component index of each vertex and the
// components themselves in reverse topological order (Tarjan emits a
// component only after all components it can reach).
func SCCs(m *linalg.CSR) (comp []int, comps [][]int) {
	const unvisited = -1
	n := m.Rows
	comp = make([]int, n)
	index := make([]int, n)
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	// members holds every emitted component back to back; comps slices it.
	members := make([]int, 0, n)
	next := 0

	// Explicit DFS frames: vertex plus position of its next entry in m.
	type frame struct {
		v, k int
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		dfs = append(dfs[:0], frame{root, int(m.RowPtr[root])})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			if f.k < int(m.RowPtr[v+1]) {
				w, positive := int(m.ColIdx[f.k]), m.Val[f.k] > 0
				f.k++
				if !positive {
					continue
				}
				if index[w] == unvisited {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{w, int(m.RowPtr[w])})
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			// Post-order: pop the frame, propagate lowlink, maybe emit SCC.
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				start := len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(comps)
					members = append(members, w)
					if w == v {
						break
					}
				}
				comps = append(comps, members[start:len(members):len(members)])
			}
		}
	}
	return comp, comps
}

// BSCCs returns the bottom strongly connected components of m: SCCs with
// no edge leaving the component. Every finite Markov chain eventually
// settles in one of these, which is why steady-state analysis decomposes
// over them.
func BSCCs(m *linalg.CSR) (comp []int, bsccs [][]int) {
	comp, comps := SCCs(m)
	isBottom := make([]bool, len(comps))
	for i := range isBottom {
		isBottom[i] = true
	}
	for u := 0; u < m.Rows; u++ {
		cu := comp[u]
		for k := m.RowPtr[u]; k < m.RowPtr[u+1]; k++ {
			if m.Val[k] > 0 && comp[m.ColIdx[k]] != cu {
				isBottom[cu] = false
				break
			}
		}
	}
	for i, c := range comps {
		if isBottom[i] {
			bsccs = append(bsccs, c)
		}
	}
	return comp, bsccs
}

// Reachable returns the set of vertices reachable in m from any source
// along paths that never enter a vertex of avoid (nil avoids nothing), as
// a membership slice of length m.Rows. Sources are included.
func Reachable(m *linalg.CSR, sources []int, avoid []bool) []bool {
	seen := make([]bool, m.Rows)
	frontier := make([]int, 0, len(sources))
	for _, s := range sources {
		if !seen[s] {
			seen[s] = true
			frontier = append(frontier, s)
		}
	}
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for k := m.RowPtr[u]; k < m.RowPtr[u+1]; k++ {
			v := m.ColIdx[k]
			if m.Val[k] > 0 && !seen[v] && (avoid == nil || !avoid[v]) {
				seen[v] = true
				frontier = append(frontier, int(v))
			}
		}
	}
	return seen
}

// CanReach returns the set of vertices from which some target is reachable
// in m along paths that never pass through a vertex of avoid (nil avoids
// nothing): Reachable over the transpose. Targets are included.
func CanReach(m *linalg.CSR, targets []int, avoid []bool) []bool {
	return Reachable(m.Transpose(), targets, avoid)
}
