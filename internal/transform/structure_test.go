package transform

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/modular"
)

// corpusArchs returns the case study plus three seeded synthetic
// architectures (3–5 ECUs, 1–2 buses, FlexRay backbone on and off). Each
// gets a second message stream "diag" (m's route reversed) and failure
// rates on m's endpoints, so every structural option changes something.
func corpusArchs(t *testing.T) []*arch.Architecture {
	t.Helper()
	archs := arch.CaseStudy()
	rng := rand.New(rand.NewPCG(19, 5))
	for i := 0; i < 3; i++ {
		a, err := arch.Synthetic(arch.SyntheticSpec{
			ECUs: 3 + rng.IntN(3), Buses: 1 + rng.IntN(2), FlexRayBackbone: i%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, a)
	}
	for _, a := range archs {
		m := *a.Message(arch.MessageM)
		route := slices.Clone(m.Buses)
		slices.Reverse(route)
		a.Messages = append(a.Messages, arch.Message{
			Name: "diag", Sender: m.Receivers[0], Receivers: []string{m.Sender}, Buses: route,
		})
		for _, name := range []string{m.Sender, m.Receivers[0]} {
			e := a.ECU(name)
			e.FailureRate, e.RepairRate = 0.5, 50
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return archs
}

// corpusVariants are the model-side option sets crossed with nmax 1–3: the
// defaults and each structural switch on its own.
var corpusVariants = []Options{
	{},
	{LiteralPatchGuard: true},
	{LinearPatchRates: true},
	{IncludeReliability: true},
	{MessagePatchRate: 3},
	{MessageExploitRate: 7},
}

// corpusMaxStates bounds the covered chains of the corpus (twice the
// uncovered ones); larger configurations are skipped to keep the test fast.
const corpusMaxStates = 5000

// TestStructureKeySound explores every cell of the corpus — both messages,
// all nine category × protection cells — and checks that cells of one
// architecture with equal StructureKey, across all configurations, explore
// to identical chains: the same states in the same order and bit-identical
// CSR rates. Each (architecture, nmax, options)
// configuration must collapse to three chains (one shared by every
// uncovered cell of either message, one covered chain per message), and
// Canonical must still tell every cell of a message apart.
func TestStructureKeySound(t *testing.T) {
	compared, skipped := 0, 0
	type chain struct {
		cell string
		ex   *modular.Explored
	}
	for _, a := range corpusArchs(t) {
		canonical := map[string]string{}
		byKey := map[string]chain{} // across all configurations of a
		for nmax := 1; nmax <= 3; nmax++ {
			for vi, v := range corpusVariants {
				v.NMax = nmax
				if !fitsCorpus(t, a, v) {
					skipped++
					continue
				}
				keys := map[string]bool{}
				for _, msg := range []string{arch.MessageM, "diag"} {
					for cat := Confidentiality; cat <= Availability; cat++ {
						for prot := Unencrypted; prot <= AES128; prot++ {
							o := v
							o.Category, o.Protection = cat, prot
							cell := fmt.Sprintf("%s nmax=%d variant=%d %s/%s/%s", a.Name, nmax, vi, msg, cat, prot)
							ck := msg + "|" + o.Canonical()
							if prev, dup := canonical[ck]; dup {
								t.Errorf("Canonical collides for %s and %s", prev, cell)
							}
							canonical[ck] = cell
							res, err := Build(a, msg, o)
							if err != nil {
								t.Fatal(err)
							}
							ex, err := res.Model.ExploreContext(t.Context(), modular.ExploreOpts{})
							if err != nil {
								t.Fatal(err)
							}
							key := o.StructureKey(msg)
							keys[key] = true
							first, ok := byKey[key]
							if !ok {
								byKey[key] = chain{cell, ex}
								continue
							}
							compared++
							if err := sameChain(first.ex, ex); err != nil {
								t.Errorf("%s and %s share a structure key but not a chain: %v", first.cell, cell, err)
							}
						}
					}
				}
				if len(keys) != 3 {
					t.Errorf("%s nmax=%d variant=%d: %d chains, want 3", a.Name, nmax, vi, len(keys))
				}
			}
		}
	}
	if compared < 500 {
		t.Fatalf("only %d cell pairs compared (%d configurations skipped)", compared, skipped)
	}
	t.Logf("%d cell pairs compared, %d configurations over %d states skipped", compared, skipped, corpusMaxStates)
}

// fitsCorpus reports whether the configuration's uncovered chain has at
// most corpusMaxStates/2 states, so its covered chains fit the bound.
func fitsCorpus(t *testing.T, a *arch.Architecture, o Options) bool {
	t.Helper()
	res, err := Build(a, arch.MessageM, o)
	if err != nil {
		t.Fatal(err)
	}
	_, err = res.Model.ExploreContext(t.Context(), modular.ExploreOpts{MaxStates: corpusMaxStates / 2})
	if errors.Is(err, modular.ErrBudgetExceeded) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	return true
}

// sameChain reports the first difference between two explorations.
func sameChain(a, b *modular.Explored) error {
	if a.N() != b.N() {
		return fmt.Errorf("%d vs %d states", a.N(), b.N())
	}
	var sa, sb []int
	for i := range a.N() {
		sa, sb = a.State(i, sa), b.State(i, sb)
		if !slices.Equal(sa, sb) {
			return fmt.Errorf("state %d: %v vs %v", i, sa, sb)
		}
	}
	ra, rb := a.Chain.Rates, b.Chain.Rates
	if !slices.Equal(ra.RowPtr, rb.RowPtr) || !slices.Equal(ra.ColIdx, rb.ColIdx) {
		return errors.New("CSR sparsity differs")
	}
	for k := range ra.Val {
		if ra.Val[k] != rb.Val[k] {
			return fmt.Errorf("rate %d: %v vs %v", k, ra.Val[k], rb.Val[k])
		}
	}
	return nil
}

// TestLabelRejectsOtherStructure checks Label refuses a cell whose
// structure key differs: a covered cell on an uncovered structure, and a
// covered cell of another message.
func TestLabelRejectsOtherStructure(t *testing.T) {
	a := corpusArchs(t)[0]
	s, err := BuildStructure(a, arch.MessageM, Options{Category: Confidentiality, Protection: Unencrypted})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(arch.MessageM, Confidentiality, AES128); !errors.Is(err, ErrStructureMismatch) {
		t.Fatalf("covered cell on uncovered structure: err = %v", err)
	}
	if _, err := s.Label("diag", Availability, AES128); err != nil {
		t.Fatalf("uncovered cell of another message: %v", err)
	}
	c, err := BuildStructure(a, arch.MessageM, Options{Category: Integrity, Protection: CMAC128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Label("diag", Integrity, CMAC128); !errors.Is(err, ErrStructureMismatch) {
		t.Fatalf("covered cell of another message: err = %v", err)
	}
	if _, err := c.Label(arch.MessageM, Confidentiality, AES128); err != nil {
		t.Fatalf("covered cell of the same message: %v", err)
	}
}
