package linalg

import "fmt"

// SliceLanes is C, the number of outputs one slice of a Sliced matrix
// interleaves.
const SliceLanes = 8

// Sliced is a sparse matrix in sliced ELLPACK (SELL-C) layout, built for
// gather products. Outputs are grouped C = SliceLanes at a time: slice s
// holds outputs sC … sC+C−1 in Val[Ptr[s]:Ptr[s+1]] and Idx likewise, as
// columns of width w_s = (Ptr[s+1]−Ptr[s])/C, so entry k of output i sits
// at Ptr[i/C] + k·C + i%C. An output with fewer than w_s entries is padded
// with value 0 at its own index (index 0 past the last output), and the
// last slice carries lanes past Rows that are never written. Like a CSR it
// holds at most MaxNNZ slots, padding included.
//
// MulVec runs the C sums of a slice side by side. Each sum still adds its
// own entries in stored order, starting from +0, so it is bit-identical to
// a one-sum loop over the same entries; a padding entry adds 0·v[k], which
// leaves the sum unchanged whenever v[k] is finite (see DESIGN.md, "Sliced
// and split kernels").
type Sliced struct {
	Rows, Cols int
	Ptr        []int32
	Idx        []int32
	Val        []float64
}

// SlicedBuilder fills a Sliced matrix in two passes over its entries,
// without staging them: the first counts the entries of each output, the
// second appends each output's entries in the order it is to sum them.
type SlicedBuilder struct {
	m    Sliced
	fill []int32 // entries counted, then placed, per output
}

// NewSlicedBuilder returns a builder of a rows×cols Sliced matrix. The
// per-output counters and Ptr share one allocation.
func NewSlicedBuilder(rows, cols int) SlicedBuilder {
	checkShape("Sliced", rows, cols, 0)
	slices := (rows + SliceLanes - 1) / SliceLanes
	buf := make([]int32, rows+slices+1)
	return SlicedBuilder{m: Sliced{Rows: rows, Cols: cols, Ptr: buf[rows:]}, fill: buf[:rows:rows]}
}

// Count records one more entry of output i.
func (b *SlicedBuilder) Count(i int) { b.fill[i]++ }

// Alloc lays out the counted entries, every slot padding until appended,
// and readies the builder for Append. It reports a layout past MaxNNZ
// slots.
func (b *SlicedBuilder) Alloc() error {
	m := &b.m
	total := 0
	for s := range len(m.Ptr) - 1 {
		var w int32
		for _, l := range b.fill[s*SliceLanes : min((s+1)*SliceLanes, m.Rows)] {
			w = max(w, l)
		}
		total += int(w) * SliceLanes
		if total > MaxNNZ {
			return fmt.Errorf("%w: sliced %dx%d matrix needs more than %d slots", ErrDimension, m.Rows, m.Cols, MaxNNZ)
		}
		m.Ptr[s+1] = int32(total)
	}
	m.Idx, m.Val = make([]int32, total), make([]float64, total)
	for s := range len(m.Ptr) - 1 {
		for lane := range SliceLanes {
			if i := s*SliceLanes + lane; i < m.Cols {
				for p := int(m.Ptr[s]) + lane; p < int(m.Ptr[s+1]); p += SliceLanes {
					m.Idx[p] = int32(i)
				}
			}
		}
	}
	clear(b.fill)
	return nil
}

// Append stores the next entry of output i: input j with value v.
func (b *SlicedBuilder) Append(i, j int, v float64) {
	p := int(b.m.Ptr[i/SliceLanes]) + int(b.fill[i])*SliceLanes + i%SliceLanes
	b.m.Idx[p], b.m.Val[p] = int32(j), v
	b.fill[i]++
}

// Sliced returns the matrix.
func (b *SlicedBuilder) Sliced() Sliced { return b.m }

// MulVec sets dst[i] to the sum, in stored order, of output i's entries
// times the inputs they index: dst = M·v with output i as row i of M.
func (m *Sliced) MulVec(v, dst Vector) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: Sliced %dx%d · vec(%d) into vec(%d)", m.Rows, m.Cols, len(v), len(dst)))
	}
	for s := 0; s+1 < len(m.Ptr); s++ {
		lo, hi := m.Ptr[s], m.Ptr[s+1]
		idx, val := m.Idx[lo:hi], m.Val[lo:hi]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for len(idx) >= SliceLanes && len(val) >= SliceLanes {
			s0 += val[0] * v[idx[0]]
			s1 += val[1] * v[idx[1]]
			s2 += val[2] * v[idx[2]]
			s3 += val[3] * v[idx[3]]
			s4 += val[4] * v[idx[4]]
			s5 += val[5] * v[idx[5]]
			s6 += val[6] * v[idx[6]]
			s7 += val[7] * v[idx[7]]
			idx, val = idx[SliceLanes:], val[SliceLanes:]
		}
		i := s * SliceLanes
		sums := [SliceLanes]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		copy(dst[i:], sums[:])
	}
}
