package modular

import (
	"math/rand"
	"slices"
	"testing"
)

// randomLayoutVars declares 1–40 variables: bools, and ints of 0–62-bit
// spans with negative and positive minimums, so layouts often take several
// words.
func randomLayoutVars(r *rand.Rand) []VarDecl {
	vars := make([]VarDecl, 1+r.Intn(40))
	for i := range vars {
		if r.Intn(4) == 0 {
			vars[i] = VarDecl{Name: "b", IsBool: true, Max: 1}
			continue
		}
		width := 1 + r.Intn(62)
		span := int(uint64(1)<<width - 1 - uint64(r.Int63n(int64(1)<<(width-1))))
		lo := r.Intn(2001) - 1000
		if r.Intn(3) == 0 {
			lo = -span / 2
		}
		vars[i] = VarDecl{Name: "x", Min: lo, Max: lo + span}
	}
	return vars
}

// randomValue draws a value in d's range, favouring its ends.
func randomValue(r *rand.Rand, d VarDecl) int {
	switch r.Intn(4) {
	case 0:
		return d.Min
	case 1:
		return d.Max
	}
	return d.Min + int(r.Int63n(int64(d.Max-d.Min)+1))
}

// Property: on seeded random layouts, decode inverts pack, the delta write
// of one field equals pack of the modified vector, and an out-of-range
// write fails and leaves the key untouched (the explorer then reports
// ErrRangeViolation; see TestExploreRangeViolation).
func TestKeyLayoutProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	words := 0
	for trial := 0; trial < 300; trial++ {
		vars := randomLayoutVars(r)
		l := newKeyLayout(vars)
		words = max(words, l.words)
		st := make([]int, len(vars))
		for i, d := range vars {
			st[i] = randomValue(r, d)
		}
		key := make([]uint64, l.words)
		if !l.pack(st, key) {
			t.Fatalf("trial %d: pack rejected in-range state %v", trial, st)
		}
		got := make([]int, len(vars))
		l.decode(key, got)
		if !slices.Equal(got, st) {
			t.Fatalf("trial %d: decode(pack(%v)) = %v", trial, st, got)
		}
		for range 20 {
			i := r.Intn(len(vars))
			v := randomValue(r, vars[i])
			if !l.set(key, i, v) {
				t.Fatalf("trial %d: set(%d, %d) rejected an in-range value", trial, i, v)
			}
			st[i] = v
			want := make([]uint64, l.words)
			l.pack(st, want)
			if !slices.Equal(key, want) {
				t.Fatalf("trial %d: set(%d, %d) = %x, pack = %x", trial, i, v, key, want)
			}
			before := slices.Clone(key)
			d := vars[i]
			for _, bad := range []int{d.Min - 1, d.Max + 1} {
				if l.set(key, i, bad) {
					t.Fatalf("trial %d: set(%d, %d) accepted a value outside [%d..%d]", trial, i, bad, d.Min, d.Max)
				}
				if !slices.Equal(key, before) {
					t.Fatalf("trial %d: rejected set(%d, %d) changed the key", trial, i, bad)
				}
			}
		}
	}
	if words < 4 {
		t.Fatalf("widest layout took %d words; the corpus should reach at least 4", words)
	}
}

// StateIndex packs keys of up to four words on the stack: looking a state
// up allocates nothing, so per-state callers (nested CSL properties) stay
// allocation-free.
func TestStateIndexZeroAlloc(t *testing.T) {
	m, err := wideRing(70)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sts := make([][]int, ex.N())
	for i := range sts {
		sts[i] = ex.State(i, nil)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i, st := range sts {
			if ex.StateIndex(st) != i {
				t.Fatal("StateIndex lost a state")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("StateIndex over %d states of a %d-word key: %v allocations, want 0", ex.N(), ex.keys.layout.words, allocs)
	}
}
