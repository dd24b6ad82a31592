package ctmc

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
)

// Lumped is the quotient of a chain under ordinary lumpability: states in
// the same block are behaviourally equivalent with respect to the initial
// signature (e.g. the "violated" label and reward values), so every
// analysis on the quotient yields exactly the same answers at a fraction of
// the state count. This implements the state-merging optimisation the paper
// proposes in Sections 4.3 and 5 as future work.
type Lumped struct {
	// Quotient is the lumped chain over blocks.
	Quotient *Chain
	// BlockOf maps each original state to its block index.
	BlockOf []int
	// Blocks lists the original states of each block.
	Blocks [][]int
}

// Lump computes the coarsest ordinary lumping of the chain that refines the
// given signature partition: states with different signature values are
// never merged. Partition refinement iterates until every block is uniform
// in its total rate into every other block (the ordinary-lumpability
// condition), then builds the quotient.
func (c *Chain) Lump(signature []int) (*Lumped, error) {
	n := c.N()
	if len(signature) != n {
		return nil, fmt.Errorf("ctmc: signature length %d, want %d", len(signature), n)
	}
	if n == 0 {
		return &Lumped{Quotient: c, BlockOf: nil, Blocks: nil}, nil
	}
	// Initial partition by signature.
	blockOf := make([]int, n)
	{
		ids := make(map[int]int)
		for i, s := range signature {
			b, ok := ids[s]
			if !ok {
				b = len(ids)
				ids[s] = b
			}
			blockOf[i] = b
		}
	}
	// Pre-transpose: refinement needs incoming edges when using splitter
	// queues; the simple full-sweep refinement below only needs outgoing
	// rows, re-scanned until stable. Complexity O(iterations · nnz), fine
	// for the model sizes the exploration produces.
	numBlocks := maxOf(blockOf) + 1
	for {
		// For every state, build its rate profile into current blocks.
		type profileKey struct {
			oldBlock int
			profile  string
		}
		rates := make(map[int]float64, 8) // block -> rate, reused
		newIDs := make(map[profileKey]int)
		newBlockOf := make([]int, n)
		for i := 0; i < n; i++ {
			for k := range rates {
				delete(rates, k)
			}
			cols, vals := c.Rates.Row(i)
			for k, j := range cols {
				bj := blockOf[j]
				if bj == blockOf[i] {
					// Ordinary lumpability constrains only the rates into
					// *other* blocks; internal transitions never change the
					// aggregated block process.
					continue
				}
				rates[bj] += vals[k]
			}
			key := profileKey{oldBlock: blockOf[i], profile: profileString(rates)}
			id, ok := newIDs[key]
			if !ok {
				id = len(newIDs)
				newIDs[key] = id
			}
			newBlockOf[i] = id
		}
		if len(newIDs) == numBlocks {
			blockOf = newBlockOf
			break
		}
		numBlocks = len(newIDs)
		blockOf = newBlockOf
	}

	// Build blocks and the quotient chain.
	blocks := make([][]int, numBlocks)
	for i, b := range blockOf {
		blocks[b] = append(blocks[b], i)
	}
	qb := NewBuilder(numBlocks)
	for b, members := range blocks {
		rep := members[0]
		cols, vals := c.Rates.Row(rep)
		agg := make(map[int]float64)
		for k, j := range cols {
			if blockOf[j] != b {
				agg[blockOf[j]] += vals[k]
			}
		}
		targets := make([]int, 0, len(agg))
		for t := range agg {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			qb.Add(b, t, agg[t])
		}
	}
	q, err := qb.Build()
	if err != nil {
		return nil, err
	}
	return &Lumped{Quotient: q, BlockOf: blockOf, Blocks: blocks}, nil
}

// profileString encodes a block→rate map canonically.
func profileString(rates map[int]float64) string {
	if len(rates) == 0 {
		return ""
	}
	keys := make([]int, 0, len(rates))
	for k := range rates {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]byte, 0, 16*len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%d:%.17g;", k, rates[k])...)
	}
	return string(out)
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// LumpDistribution projects a distribution over original states onto the
// blocks.
func (l *Lumped) LumpDistribution(init linalg.Vector) (linalg.Vector, error) {
	if len(init) != len(l.BlockOf) {
		return nil, fmt.Errorf("ctmc: distribution length %d, want %d", len(init), len(l.BlockOf))
	}
	out := linalg.NewVector(l.Quotient.N())
	for i, p := range init {
		out[l.BlockOf[i]] += p
	}
	return out, nil
}

// LumpMask projects a state mask onto blocks. The mask must be constant on
// every block (guaranteed when it was part of the lumping signature);
// otherwise an error is returned.
func (l *Lumped) LumpMask(mask []bool) ([]bool, error) {
	if len(mask) != len(l.BlockOf) {
		return nil, fmt.Errorf("ctmc: mask length %d, want %d", len(mask), len(l.BlockOf))
	}
	out := make([]bool, l.Quotient.N())
	set := make([]bool, l.Quotient.N())
	for i, m := range mask {
		b := l.BlockOf[i]
		if set[b] && out[b] != m {
			return nil, fmt.Errorf("ctmc: mask not constant on block %d; include it in the lumping signature", b)
		}
		out[b] = m
		set[b] = true
	}
	return out, nil
}
